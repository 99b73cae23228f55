#!/usr/bin/env python3
"""Repo-specific concurrency/ownership invariant lint.

Mechanizes the rules the codebase's concurrency-correctness story depends
on — the ones clang-tidy cannot know about:

  omp-outside-parallel  Every `#pragma omp` must live in
                        src/grb/detail/parallel.hpp. That confinement is
                        what lets the TSan fork/join annotations and the
                        debug overlap claims cover the whole library from
                        one file.
  omp-reduction         `reduction(...)` clauses are banned everywhere
                        (including parallel.hpp): their combination order
                        varies with the team size, which breaks the
                        bit-identical-at-any-thread-count guarantee. Use
                        detail::parallel_fold (fixed-grid, deterministic).
  naked-alloc           `new T[...]` / malloc / calloc / realloc are banned
                        everywhere: scratch and storage use std::vector,
                        which owns its buffer and frees it on every exit
                        path.
  raw-rng               std::rand / srand / std::random_device are banned in
                        library code (src/): all randomness flows through
                        the seeded support/rng.hpp engines so every run is
                        reproducible from its --seed.
  raw-thread            std::thread / std::jthread / std::condition_variable
                        are banned outside src/grb/detail/ and src/daemon/:
                        thread lifetime and hand-off edges live behind the
                        EpochPipeline and parallel.hpp abstractions, where
                        the TSan story (native mutex/cv edges vs
                        re-annotated libgomp barriers) is established once.
                        The daemon layer is the second sanctioned owner — it
                        is a network service (connection threads, one writer
                        thread) and is all-native mutex/cv, covered by the
                        TSan lane's Daemon suites. std::thread::id and
                        this_thread remain fine — only ownership primitives
                        are confined.
  global-counter        No namespace-scope or `static` std::atomic<unsigned
                        integer> in src/ outside src/support/telemetry/: a
                        process-global unsigned atomic is a counter, and
                        counters leave the process through the telemetry
                        registry only. Member atomics (the server's, the
                        pipeline's) and non-counter globals (atomic<int>,
                        atomic<LogLevel>) are legal.

A line may opt out of one rule with a trailing `lint:allow(<rule-id>)`
marker (inside a comment), mirroring clang-tidy's NOLINT. Use sparingly and
say why next to it.

`--check-trace PATH` validates a Chrome trace_event JSON written by the
telemetry tracer (grb_daemon/load_gen/fig5 --trace=PATH): well-formed JSON,
required fields on every event, balanced B/E nesting per (pid, tid),
non-decreasing timestamps per tid, every published epoch (id >= 1; 0 is the
initial evaluation) observed in at least 3 distinct pipeline stages, and at
least one epoch covering the full route/apply/merge/publish lifecycle. The
daemon-smoke CI lane runs it over a live daemon's trace.

Exit status: 0 clean, 1 violations found (printed as file:line: [rule] ...),
2 usage error. `--self-test` seeds one violation per rule in a temp tree and
asserts the scanner catches each (and that a clean tree passes), then feeds
the trace checker known-good and known-broken traces — this runs as the
ctest case lint.invariants_selftest.
"""

import argparse
import json
import os
import re
import sys
import tempfile

CODE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc", ".cxx", ".hxx")

# Directories scanned relative to the repo root. `build*` and hidden dirs
# are always skipped.
SCAN_DIRS = ("src", "tests", "bench", "examples")

ALLOW_MARKER = re.compile(r"lint:allow\(([a-z-]+)\)")

# Strip // line comments so prose about "#pragma omp" or "malloc" in a
# comment does not trip the code rules. Block comments are rare in this
# codebase and handled line-wise (a line starting with * or /* is prose).
LINE_COMMENT = re.compile(r"//.*$")
BLOCK_COMMENT_LINE = re.compile(r"^\s*(/\*|\*)")


class Rule:
    def __init__(self, rule_id, pattern, message, dirs, allowed_files,
                 allowed_prefixes=()):
        self.rule_id = rule_id
        self.pattern = re.compile(pattern)
        self.message = message
        self.dirs = dirs  # top-level dirs the rule applies to
        self.allowed_files = allowed_files  # repo-relative posix paths exempt
        # Repo-relative posix directory prefixes (trailing slash) whose whole
        # subtree is exempt — for invariants confined to a layer, not a file.
        self.allowed_prefixes = tuple(allowed_prefixes)

    def exempt(self, rel):
        return rel in self.allowed_files or any(
            rel.startswith(p) for p in self.allowed_prefixes
        )

    def violations(self, lines):
        """Yields (lineno, raw line) for each line matching the rule."""
        for lineno, raw in enumerate(lines, start=1):
            if BLOCK_COMMENT_LINE.match(raw):
                continue
            if self.pattern.search(LINE_COMMENT.sub("", raw)):
                yield lineno, raw


# std::atomic over an unsigned integer type, spelled out or as an alias.
UNSIGNED_ATOMIC = re.compile(
    r"\bstd::atomic(?:\s*<\s*(?:std::)?(?:uint\w*|size_t|unsigned\b[\w\s]*)"
    r"\s*>|_(?:uint\w*|size_t|u(?:long|llong|short|char))\b)"
)
STRING_LITERAL = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'')
NAMESPACE_OPENER = re.compile(
    r"^\s*(?:inline\s+)?namespace\b[^(]*$|\bextern\s*\"\""
)


class GlobalCounterRule(Rule):
    """Whether a declaration is process-global depends on its scope, not its
    line: walk the braces and flag a match at namespace scope, or a `static`
    one anywhere (static data members and function-local statics are one
    per process too). Parameters, references and pointers are not storage."""

    def violations(self, lines):
        in_namespace = [True]  # per open brace: does it open a namespace?
        stmt = ""  # statement text since the last ; { or }
        for lineno, raw in enumerate(lines, start=1):
            if raw.lstrip().startswith("#") or BLOCK_COMMENT_LINE.match(raw):
                continue
            code = STRING_LITERAL.sub('""', LINE_COMMENT.sub("", raw))
            ends = {m.start(): m.end() for m in self.pattern.finditer(code)}
            fired = False
            for i, ch in enumerate(code):
                if i in ends and not fired and "(" not in stmt:
                    ref = code[ends[i]:].lstrip().startswith(("&", "*"))
                    static = re.search(r"\bstatic\b", stmt) and not re.search(
                        r"\bthread_local\b", stmt)
                    if not ref and (in_namespace[-1] or static):
                        fired = True
                        yield lineno, raw
                if ch not in "{};":
                    stmt += ch
                    continue
                if ch == "{":
                    in_namespace.append(bool(NAMESPACE_OPENER.search(stmt)))
                elif ch == "}" and len(in_namespace) > 1:
                    in_namespace.pop()
                stmt = ""
            stmt += " "


RULES = [
    Rule(
        "omp-outside-parallel",
        r"#\s*pragma\s+omp\b",
        "`#pragma omp` outside src/grb/detail/parallel.hpp — route the "
        "parallelism through parallel_for/parallel_region/parallel_tasks",
        SCAN_DIRS,
        {"src/grb/detail/parallel.hpp"},
    ),
    Rule(
        "omp-reduction",
        r"#\s*pragma\s+omp\b.*\breduction\s*\(",
        "omp reduction clause — combination order depends on the team size; "
        "use detail::parallel_fold (deterministic fixed-grid reduction)",
        SCAN_DIRS,
        set(),
    ),
    Rule(
        "naked-alloc",
        r"(\bnew\s+[A-Za-z_][\w:<>,\s]*\[|\b(?:malloc|calloc|realloc)\s*\()",
        "naked allocation — use std::vector, which owns its buffer",
        SCAN_DIRS,
        set(),
    ),
    Rule(
        "raw-rng",
        r"(\bstd::rand\b|\bsrand\s*\(|\bstd::random_device\b)",
        "non-reproducible RNG in library code — use the seeded engines in "
        "support/rng.hpp so runs replay from --seed",
        ("src",),
        {"src/support/rng.hpp"},
    ),
    Rule(
        # `thread\b(?!::)` keeps std::thread::id / std::thread::hardware_
        # concurrency legal — only owning a thread (or a cv hand-off edge)
        # is confined to the detail layer.
        "raw-thread",
        r"\bstd::(?:jthread\b|condition_variable|thread\b(?!::))",
        "raw thread/cv ownership outside src/grb/detail/ and src/daemon/ — "
        "hand epochs to workers through grb::detail::EpochPipeline "
        "(grb/detail/pipeline.hpp) or use the parallel.hpp primitives",
        ("src", "bench", "examples"),
        set(),
        ("src/grb/detail/", "src/daemon/"),
    ),
    GlobalCounterRule(
        "global-counter",
        UNSIGNED_ATOMIC.pattern,
        "process-global unsigned atomic outside src/support/telemetry/ — "
        "count through a telemetry::Registry counter (or a member atomic a "
        "registry provider publishes), so the registry stays the only "
        "stats path",
        ("src",),
        set(),
        ("src/support/telemetry/",),
    ),
]


def iter_files(root, dirs):
    for d in dirs:
        top = os.path.join(root, d)
        if not os.path.isdir(top):
            continue
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = [
                n for n in dirnames if not n.startswith(".") and n != "build"
            ]
            for name in sorted(filenames):
                if name.endswith(CODE_SUFFIXES):
                    yield os.path.join(dirpath, name)


def scan(root):
    """Returns a list of (relpath, lineno, rule_id, message, line) tuples."""
    violations = []
    files_by_dirs = {}
    for rule in RULES:
        files_by_dirs.setdefault(rule.dirs, None)
    for dirs in files_by_dirs:
        files_by_dirs[dirs] = list(iter_files(root, dirs))
    for rule in RULES:
        for path in files_by_dirs[rule.dirs]:
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rule.exempt(rel):
                continue
            try:
                with open(path, encoding="utf-8", errors="replace") as f:
                    lines = f.readlines()
            except OSError as e:
                print(f"error: cannot read {rel}: {e}", file=sys.stderr)
                return None
            for lineno, raw in rule.violations(lines):
                allow = ALLOW_MARKER.search(raw)
                if allow and allow.group(1) == rule.rule_id:
                    continue
                violations.append(
                    (rel, lineno, rule.rule_id, rule.message, raw.rstrip())
                )
    return violations


# --- Chrome-trace validation -------------------------------------------------

# The daemon-side stages one published epoch must flow through; "answer" and
# "client.read" additionally appear for epochs that were read.
FULL_LIFECYCLE = ("route", "apply", "merge", "publish")
MIN_STAGES_PER_EPOCH = 3


def check_trace_events(events):
    """Validates a parsed traceEvents list. Returns a list of error strings
    (empty = valid)."""
    errors = []
    stacks = {}  # (pid, tid) -> list of begin-event names
    last_ts = {}  # tid -> last seen ts
    epoch_stages = {}  # epoch id -> set of span names
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            errors.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            continue  # metadata (process_name etc.): no further shape rules
        if ph not in ("B", "E"):
            errors.append(f"event {i}: unexpected ph {ph!r}")
            continue
        missing = [k for k in ("name", "pid", "tid", "ts") if k not in ev]
        if missing:
            errors.append(f"event {i}: missing fields {missing}")
            continue
        tid = ev["tid"]
        ts = ev["ts"]
        if not isinstance(ts, (int, float)):
            errors.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if tid in last_ts and ts < last_ts[tid]:
            errors.append(
                f"event {i}: ts {ts} goes backwards on tid {tid} "
                f"(previous {last_ts[tid]})"
            )
        last_ts[tid] = ts
        stack = stacks.setdefault((ev["pid"], tid), [])
        if ph == "B":
            stack.append(ev["name"])
        else:
            if not stack:
                errors.append(
                    f"event {i}: E {ev['name']!r} with no open B on "
                    f"tid {tid}"
                )
                continue
            opened = stack.pop()
            if opened != ev["name"]:
                errors.append(
                    f"event {i}: E {ev['name']!r} closes B {opened!r} on "
                    f"tid {tid}"
                )
            epoch = ev.get("args", {}).get("epoch")
            if isinstance(epoch, int):
                epoch_stages.setdefault(epoch, set()).add(ev["name"])
    for (pid, tid), stack in sorted(stacks.items()):
        if stack:
            errors.append(
                f"tid {tid} (pid {pid}): {len(stack)} unclosed B event(s): "
                f"{stack}"
            )
    # Epoch coverage: ids are the published 1-based snapshot numbering;
    # epoch 0 (the initial evaluation / unanswered reads) is exempt.
    published = {e: s for e, s in epoch_stages.items() if e >= 1}
    if not published:
        errors.append(
            "no spans tagged with a published epoch (id >= 1) — tracing was "
            "not armed, or the daemon saw no writes"
        )
    for epoch in sorted(published):
        stages = published[epoch]
        if len(stages) < MIN_STAGES_PER_EPOCH:
            errors.append(
                f"epoch {epoch}: only {sorted(stages)} — every published "
                f"epoch must appear in >= {MIN_STAGES_PER_EPOCH} stages"
            )
    if published and not any(
        set(FULL_LIFECYCLE) <= s for s in published.values()
    ):
        errors.append(
            "no epoch covers the full lifecycle "
            f"{'/'.join(FULL_LIFECYCLE)}"
        )
    return errors


def check_trace(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"{path}: [trace] malformed JSON: {e}")
        return 1
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
    elif isinstance(doc, list):
        events = doc
    else:
        events = None
    if not isinstance(events, list):
        print(f"{path}: [trace] expected a traceEvents array")
        return 1
    errors = check_trace_events(events)
    for e in errors:
        print(f"{path}: [trace] {e}")
    if errors:
        print(f"\n{len(errors)} trace violation(s).", file=sys.stderr)
        return 1
    n_epochs = len(
        {
            ev["args"]["epoch"]
            for ev in events
            if isinstance(ev, dict)
            and isinstance(ev.get("args", {}).get("epoch"), int)
            and ev["args"]["epoch"] >= 1
        }
    )
    print(
        f"lint_invariants: trace ok ({len(events)} events, "
        f"{n_epochs} published epoch(s))"
    )
    return 0


def trace_self_test():
    """Feeds the trace checker a known-good trace and one broken variant per
    rule; returns a list of failure strings."""

    def span(name, epoch, tid, ts, dur):
        args = {"epoch": epoch}
        return [
            {"name": name, "ph": "B", "pid": 1, "tid": tid, "ts": ts,
             "args": args},
            {"name": name, "ph": "E", "pid": 1, "tid": tid, "ts": ts + dur,
             "args": args},
        ]

    good = (
        [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
          "args": {"name": "grb_daemon"}}]
        + span("route", 1, 1, 0.0, 5.0)
        + span("apply", 1, 2, 6.0, 20.0)
        + span("merge", 1, 1, 30.0, 10.0)
        + span("publish", 1, 1, 41.0, 2.0)
        + span("answer", 1, 3, 50.0, 3.0)
    )
    unbalanced = good + [
        {"name": "merge", "ph": "E", "pid": 1, "tid": 1, "ts": 99.0,
         "args": {"epoch": 1}}
    ]
    # Epoch 2 only ever routes + merges: fewer than MIN_STAGES_PER_EPOCH.
    thin_epoch = good + span("route", 2, 1, 60.0, 5.0) + span(
        "merge", 2, 1, 70.0, 5.0
    )
    backwards = good + span("route", 1, 1, -50.0, 5.0)
    no_epochs = [ev for ev in good if ev.get("args", {}).get("epoch") != 1]

    cases = [
        ("valid trace", good, True),
        ("unbalanced E", unbalanced, False),
        ("epoch below stage floor", thin_epoch, False),
        ("backwards ts", backwards, False),
        ("no published epochs", no_epochs, False),
    ]
    failures = []
    for what, events, expect_ok in cases:
        errors = check_trace_events(events)
        if bool(errors) == expect_ok:
            failures.append(
                f"trace checker: {what}: expected "
                f"{'pass' if expect_ok else 'fail'}, got {errors or 'pass'}"
            )
    return failures


def self_test():
    """Seeds one violation per rule in a temp tree; the scanner must flag
    each, and a clean tree must pass."""
    seeded = {
        # A stray omp pragma in a test fixture — the canonical violation.
        "tests/fixture_test.cpp": (
            "void f(int* v, int n) {\n"
            "#pragma omp parallel for\n"
            "  for (int i = 0; i < n; ++i) v[i] = i;\n"
            "}\n",
            {"omp-outside-parallel"},
        ),
        "src/grb/detail/parallel.hpp": (
            "#pragma omp parallel for reduction(+ : sum)\n",
            {"omp-reduction"},  # allowed for the omp rule, not for reduction
        ),
        "src/kernel.cpp": (
            "int* scratch = new int[1024];\n"
            "void* p = malloc(64);\n",
            {"naked-alloc"},
        ),
        # No file is exempt, the grb detail layer included.
        "src/grb/detail/pool.hpp": (
            "T* buf = static_cast<T*>(realloc(buf, n * sizeof(T)));\n",
            {"naked-alloc"},
        ),
        "src/engine.cpp": (
            "#include <random>\n"
            "int seed() { return static_cast<int>(std::random_device{}()); }\n",
            {"raw-rng"},
        ),
        # A hand-rolled worker thread and cv outside the detail layer.
        "src/worker_pool.cpp": (
            "#include <thread>\n"
            "std::thread t([] {});\n"
            "std::condition_variable cv;\n",
            {"raw-thread"},
        ),
        # The detail layer itself may own threads (prefix exemption) ...
        "src/grb/detail/pipeline2.hpp": (
            "#include <thread>\n"
            "std::vector<std::thread> threads_;\n",
            set(),
        ),
        # ... as may the daemon layer (connection threads + writer thread),
        "src/daemon/server2.cpp": (
            "#include <thread>\n"
            "std::thread writer_;\n"
            "std::condition_variable ingest_cv_;\n",
            set(),
        ),
        # ... and non-owning thread identity is legal anywhere.
        "src/logger.cpp": (
            "#include <thread>\n"
            "std::thread::id last = std::this_thread::get_id();\n",
            set(),
        ),
        # Process-global unsigned atomics: a namespace-scope counter and a
        # function-local static one.
        "src/queries/counters.cpp": (
            "namespace {\nstd::atomic<std::uint64_t> g_blocks{0};\n}\n",
            {"global-counter"},
        ),
        "src/queries/calls.cpp": (
            "void f() {\n  static std::atomic<std::size_t> calls{0};\n}\n",
            {"global-counter"},
        ),
        # Members, locals, parameters and non-counter globals stay legal,
        "src/grb/detail/stats2.hpp": (
            "class Stats {\n"
            "  void note(std::atomic<std::uint64_t>& c) {\n"
            "    std::atomic<std::size_t> local{0};\n"
            "  }\n"
            "  std::atomic<std::uint64_t> hits_{0};\n"
            "};\n"
            "std::atomic<int> g_threads{0};\n"
            "std::atomic<LogLevel> g_level{LogLevel::kInfo};\n",
            set(),
        ),
        # ... as is the telemetry layer, which owns the registry's storage.
        "src/support/telemetry/metrics2.cpp": (
            "std::atomic<std::uint64_t> g_seq{0};\n",
            set(),
        ),
        # Clean + suppressed content must NOT fire.
        "src/clean.cpp": (
            "// prose about #pragma omp and malloc( in a comment is fine\n"
            "int* p = new int[4];  // lint:allow(naked-alloc) fixed-size ABI\n",
            set(),
        ),
    }
    failures = []
    with tempfile.TemporaryDirectory(prefix="lint_selftest_") as tmp:
        for rel, (content, _) in seeded.items():
            path = os.path.join(tmp, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)
        violations = scan(tmp)
        if violations is None:
            return 1
        fired = {}
        for rel, _lineno, rule_id, _msg, _line in violations:
            fired.setdefault(rel, set()).add(rule_id)
        for rel, (_content, expected) in seeded.items():
            got = fired.get(rel, set())
            if got != expected:
                failures.append(
                    f"{rel}: expected rules {sorted(expected)}, got {sorted(got)}"
                )
    # An empty tree must scan clean.
    with tempfile.TemporaryDirectory(prefix="lint_selftest_clean_") as tmp:
        os.makedirs(os.path.join(tmp, "src"))
        if scan(tmp):
            failures.append("clean tree reported violations")
    failures.extend(trace_self_test())
    if failures:
        print("lint_invariants self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("lint_invariants self-test passed "
          f"({len(RULES)} rules, seeded violations all caught; trace "
          "checker verified)")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser.add_argument("--root", default=default_root,
                        help="repo root to scan (default: the checkout "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed violations in a temp tree and assert the "
                             "scanner catches them")
    parser.add_argument("--check-trace", metavar="PATH",
                        help="validate a Chrome trace_event JSON written by "
                             "--trace=PATH instead of scanning sources")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if args.check_trace:
        return check_trace(args.check_trace)

    if not os.path.isdir(args.root):
        print(f"error: no such directory: {args.root}", file=sys.stderr)
        return 2
    violations = scan(args.root)
    if violations is None:
        return 2
    for rel, lineno, rule_id, message, line in violations:
        print(f"{rel}:{lineno}: [{rule_id}] {message}")
        print(f"    {line.strip()}")
    if violations:
        print(f"\n{len(violations)} invariant violation(s).", file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
