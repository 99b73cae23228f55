// Regenerates Fig. 5: execution times of Q1 and Q2 with respect to graph
// size, for the "load and initial evaluation" and "update and reevaluation"
// phases, across the paper's six tools (GraphBLAS Batch / Incremental,
// each at 1 and 8 threads, NMF Batch / Incremental).
//
// With no flags this prints all four panels for scale factors 1..128 with
// 3 repetitions (geometric mean, as in the paper) and then checks the
// qualitative claims of Sec. IV ("shape checks"). Flags:
//   --query=Q1|Q2|both     (default both)
//   --phase=initial|update|both
//   --min-sf=1 --max-sf=128   (any Table II power of two up to 1024)
//   --repeats=3               (paper uses 5)
//   --seed=42
//   --csv                     (machine-readable output too)
//   --extension               (include the GraphBLAS Incremental+CC tool)
//   --verify                  (cross-check all tools' answers first)
//   --tools=SUBSTR            (only tools whose label contains SUBSTR,
//                              e.g. --tools=GraphBLAS)
//   --smoke                   (CI trend check: exit nonzero unless
//                              GraphBLAS Incremental beats GraphBLAS Batch
//                              on update-and-reevaluation at the largest
//                              scale factor run; with --shards=N it
//                              additionally cross-checks the sharded
//                              engines' answers against the unsharded
//                              ones)
//   --shards=N                (also run the sharded engine pair at N
//                              shards, one thread per shard)
//   --pipeline=DEPTH          (also run the pipelined engine pair — the
//                              asynchronous ingestion pipeline at DEPTH
//                              change sets in flight, shards from --shards
//                              or 4 — and measure update-phase throughput
//                              in change sets/sec: serial sharded
//                              ingestion vs the pipeline at depths 1, 2
//                              and 4, at --throughput-sf, next to the
//                              unsharded grb-incremental engine (reported,
//                              not gated). With --smoke it
//                              additionally gates pipelined answers ==
//                              serial answers and that pipelined
//                              throughput has not collapsed below half of
//                              serial)
//   --throughput-sf=SF        (scale factor for the throughput
//                              measurement; default: the largest scale
//                              run)
//   --json=PATH               (machine-readable results: timings per
//                              tool/query/scale, plus throughput_cs_per_s
//                              entries with --pipeline, plus — with
//                              --smoke — the gate verdicts and a telemetry
//                              block: the epoch.*_us phase histograms the
//                              in-process trace spans fed)
//   --trace=PATH              (arm epoch tracing for the whole run and
//                              write a Chrome trace_event JSON at exit)
//
// With --smoke and --pipeline the run also gates telemetry overhead: the
// pipelined update loop is timed with spans fully off (TelemetryMode::kOff)
// and at the shipping default (kMetricsOnly); the instrumented loop must
// stay within 1.5x of the baseline (min of 3 runs each, plus absolute
// slack), so a span creeping onto a hot path fails CI instead of silently
// taxing ingestion.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "datagen/generator.hpp"
#include "grb/context.hpp"
#include "harness/report.hpp"
#include "harness/runner.hpp"
#include "queries/top_k.hpp"
#include "support/flags.hpp"
#include "support/telemetry/metrics.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace {

namespace telemetry = grbsm::telemetry;

struct Cell {
  double initial = -1.0;
  double update = -1.0;
};

/// Everything the smoke gates decided, for the exit code and the JSON.
struct SmokeResult {
  bool ran = false;
  bool trend_ok = false;
  double incremental_s = -1.0;
  double batch_s = -1.0;
  unsigned scale = 0;
  // --- sharded gate (only with --shards=N) ----------------------------------
  bool sharded_ran = false;
  bool sharded_answers_ok = false;
  // --- pipeline gates (only with --pipeline=DEPTH) --------------------------
  bool pipeline_ran = false;
  bool pipeline_answers_ok = false;
  bool pipeline_throughput_ok = false;
  int pipeline_depth = 0;
  // --- top-k pruning gates (removal-heavy stream) ---------------------------
  bool prune_ran = false;
  bool prune_answers_ok = false;   ///< pruned engines == unpruned batch oracle
  bool prune_counters_ok = false;  ///< scanned + skipped == total, pool hits
  bool prune_skip_ok = false;      ///< skip fraction above the floor
  queries::PruneStats prune;       ///< counters over the removal stream
  // --- telemetry overhead gate (only with --pipeline=DEPTH) -----------------
  bool telemetry_ran = false;
  bool telemetry_overhead_ok = false;
  double telemetry_off_s = -1.0;  ///< update loop, spans compiled to a load
  double telemetry_on_s = -1.0;   ///< update loop, kMetricsOnly (the default)

  [[nodiscard]] bool ok() const {
    return trend_ok && (!sharded_ran || sharded_answers_ok) &&
           (!pipeline_ran ||
            (pipeline_answers_ok && pipeline_throughput_ok)) &&
           (!prune_ran ||
            (prune_answers_ok && prune_counters_ok && prune_skip_ok)) &&
           (!telemetry_ran || telemetry_overhead_ok);
  }
};

/// Update-phase ingestion throughput (change sets / second): the serial
/// sharded schedule vs the pipelined schedule at depths 1, 2 and 4, with
/// the unsharded incremental engine as the baseline every schedule has to
/// beat.
struct ThroughputEntry {
  int depth = 0;
  double update_s = -1.0;
  double cs_per_s = -1.0;
};
struct ThroughputResult {
  bool ran = false;
  unsigned scale = 0;
  std::size_t change_sets = 0;
  int shards = 0;
  ThroughputEntry unsharded;       ///< grb-incremental, one GrbState
  ThroughputEntry serial;          ///< depth 0: serial barrier ingestion
  std::vector<ThroughputEntry> pipelined;
};

void write_json(
    const std::string& path, std::uint64_t seed, int repeats, int shards,
    const std::vector<unsigned>& scales,
    const std::vector<harness::ToolSpec>& tools,
    const std::vector<harness::Query>& queries,
    const std::map<std::string,
                   std::map<std::string, std::map<unsigned, Cell>>>& res,
    const SmokeResult& smoke, const ThroughputResult& tp) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "fig5: cannot write --json=" << path << "\n";
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"fig5_runtime\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n  \"repeats\": %d,\n  \"shards\": %d,\n",
               static_cast<unsigned long long>(seed), repeats, shards);
  std::fprintf(f, "  \"scales\": [");
  for (std::size_t i = 0; i < scales.size(); ++i) {
    std::fprintf(f, "%s%u", i ? ", " : "", scales[i]);
  }
  std::fprintf(f, "],\n  \"tools\": [\n");
  for (std::size_t t = 0; t < tools.size(); ++t) {
    const auto& tool = tools[t];
    std::fprintf(f,
                 "    {\"label\": \"%s\", \"key\": \"%s\", \"threads\": %d, "
                 "\"shards\": %d, \"pipeline\": %d, \"results\": [",
                 tool.label.c_str(), tool.key.c_str(), tool.threads,
                 tool.shards, tool.pipeline);
    bool first = true;
    for (const harness::Query q : queries) {
      const auto by_tool = res.find(harness::query_name(q));
      if (by_tool == res.end()) continue;
      const auto by_scale = by_tool->second.find(tool.label);
      if (by_scale == by_tool->second.end()) continue;
      for (const unsigned sf : scales) {
        // Emit only combinations the timing loop actually measured — a
        // fabricated default cell would read as a (negative) measurement.
        const auto cell = by_scale->second.find(sf);
        if (cell == by_scale->second.end()) continue;
        std::fprintf(f,
                     "%s\n      {\"query\": \"%s\", \"scale\": %u, "
                     "\"initial_s\": %.6g, \"update_s\": %.6g}",
                     first ? "" : ",", harness::query_name(q), sf,
                     cell->second.initial, cell->second.update);
        first = false;
      }
    }
    std::fprintf(f, "\n    ]}%s\n", t + 1 < tools.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
  if (tp.ran) {
    std::fprintf(f,
                 ",\n  \"throughput\": {\n    \"query\": \"Q2\", \"scale\": "
                 "%u, \"change_sets\": %zu, \"shards\": %d,\n"
                 "    \"unsharded\": {\"update_s\": %.6g, "
                 "\"throughput_cs_per_s\": %.6g},\n"
                 "    \"serial\": {\"update_s\": %.6g, "
                 "\"throughput_cs_per_s\": %.6g},\n    \"pipelined\": [",
                 tp.scale, tp.change_sets, tp.shards, tp.unsharded.update_s,
                 tp.unsharded.cs_per_s, tp.serial.update_s,
                 tp.serial.cs_per_s);
    for (std::size_t i = 0; i < tp.pipelined.size(); ++i) {
      const ThroughputEntry& e = tp.pipelined[i];
      std::fprintf(f,
                   "%s\n      {\"depth\": %d, \"update_s\": %.6g, "
                   "\"throughput_cs_per_s\": %.6g}",
                   i ? "," : "", e.depth, e.update_s, e.cs_per_s);
    }
    std::fprintf(f, "\n    ]\n  }");
  }
  if (smoke.ran) {
    std::fprintf(f,
                 ",\n  \"smoke\": {\n    \"ok\": %s,\n    \"trend_ok\": %s,\n"
                 "    \"incremental_s\": %.6g,\n    \"batch_s\": %.6g,\n"
                 "    \"scale\": %u",
                 smoke.ok() ? "true" : "false",
                 smoke.trend_ok ? "true" : "false", smoke.incremental_s,
                 smoke.batch_s, smoke.scale);
    if (smoke.sharded_ran) {
      std::fprintf(f,
                   ",\n    \"sharded\": {\"shards\": %d, "
                   "\"answers_match\": %s}",
                   shards, smoke.sharded_answers_ok ? "true" : "false");
    }
    if (smoke.pipeline_ran) {
      std::fprintf(f,
                   ",\n    \"pipeline\": {\"depth\": %d, "
                   "\"answers_match\": %s, \"throughput_ok\": %s}",
                   smoke.pipeline_depth,
                   smoke.pipeline_answers_ok ? "true" : "false",
                   smoke.pipeline_throughput_ok ? "true" : "false");
    }
    if (smoke.prune_ran) {
      std::fprintf(
          f,
          ",\n    \"prune\": {\"answers_match\": %s, \"counters_ok\": %s, "
          "\"skip_ok\": %s,\n      \"blocks_total\": %llu, "
          "\"blocks_scanned\": %llu, \"blocks_skipped\": %llu,\n      "
          "\"pool_hits\": %llu, \"pool_rebuilds\": %llu, "
          "\"bound_rebuilds\": %llu}",
          smoke.prune_answers_ok ? "true" : "false",
          smoke.prune_counters_ok ? "true" : "false",
          smoke.prune_skip_ok ? "true" : "false",
          static_cast<unsigned long long>(smoke.prune.blocks_total),
          static_cast<unsigned long long>(smoke.prune.blocks_scanned),
          static_cast<unsigned long long>(smoke.prune.blocks_skipped),
          static_cast<unsigned long long>(smoke.prune.pool_hits),
          static_cast<unsigned long long>(smoke.prune.pool_rebuilds),
          static_cast<unsigned long long>(smoke.prune.bound_rebuilds));
    }
    if (smoke.telemetry_ran) {
      std::fprintf(f,
                   ",\n    \"telemetry\": {\"overhead_ok\": %s, "
                   "\"off_s\": %.6g, \"on_s\": %.6g}",
                   smoke.telemetry_overhead_ok ? "true" : "false",
                   smoke.telemetry_off_s, smoke.telemetry_on_s);
    }
    std::fprintf(f, "\n  }");
  }
  // Per-phase breakdown from the in-process registry: every epoch.*_us
  // histogram the run's trace spans fed (kMetricsOnly keeps them recording
  // even without --trace). Units are microseconds per span.
  {
    const telemetry::RegistrySnapshot reg =
        telemetry::Registry::instance().snapshot();
    bool first = true;
    for (const auto& [name, mv] : reg.entries) {
      if (mv.kind != telemetry::MetricKind::kHistogram) continue;
      if (name.rfind("epoch.", 0) != 0 || mv.hist.count() == 0) continue;
      std::fprintf(f, "%s\n    \"%s\": {\"n\": %llu, \"p50\": %.1f, "
                      "\"p99\": %.1f, \"mean\": %.1f, \"max\": %llu}",
                   first ? ",\n  \"telemetry_phases\": {" : ",", name.c_str(),
                   static_cast<unsigned long long>(mv.hist.count()),
                   mv.hist.p50(), mv.hist.p99(), mv.hist.mean(),
                   static_cast<unsigned long long>(mv.hist.max));
      first = false;
    }
    if (!first) std::fprintf(f, "\n  }");
  }
  std::fprintf(f, "\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  const grbsm::support::Flags flags(argc, argv);
  const std::string query_sel = flags.get("query", "both");
  const std::string phase_sel = flags.get("phase", "both");
  const auto min_sf = static_cast<unsigned>(flags.get_int("min-sf", 1));
  const auto max_sf = static_cast<unsigned>(flags.get_int("max-sf", 128));
  const int repeats = static_cast<int>(flags.get_int("repeats", 3));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const bool csv = flags.get_bool("csv", false);
  const bool verify = flags.get_bool("verify", false);

  const bool smoke = flags.get_bool("smoke", false);
  const int shards = static_cast<int>(flags.get_int("shards", 0));
  const int pipeline = static_cast<int>(flags.get_int("pipeline", 0));
  // The pipelined tools shard too; without an explicit --shards they run at
  // the registry's default 4-shard configuration.
  const int pshards = shards > 0 ? shards : 4;
  // Read unconditionally so reject_unqueried below treats it as known even
  // without --pipeline; 0 = "the largest benchmarked scale".
  const auto throughput_sf =
      static_cast<unsigned>(flags.get_int("throughput-sf", 0));
  const std::string json_path = flags.get("json", "");
  const std::string trace_path = flags.get("trace", "");
  if (!trace_path.empty()) {
    telemetry::set_mode(telemetry::TelemetryMode::kTracing);
  }
  std::vector<harness::ToolSpec> tools = harness::fig5_tools();
  if (flags.get_bool("extension", false)) {
    tools.push_back(harness::find_tool("grb-incremental-cc"));
  }
  if (shards > 0) {
    for (const auto& t : harness::sharded_tools(shards)) tools.push_back(t);
  }
  if (pipeline > 0) {
    for (const auto& t : harness::pipelined_tools(pshards, pipeline)) {
      tools.push_back(t);
    }
  }
  const std::string tools_sel = flags.get("tools", "");
  // Every flag has been read; a typo'd name (--shard=4, --pipelin=2) must
  // fail loudly instead of silently benchmarking the default configuration.
  flags.reject_unqueried("fig5_runtime");
  if (!tools_sel.empty()) {
    std::erase_if(tools, [&](const harness::ToolSpec& t) {
      return t.label.find(tools_sel) == std::string::npos;
    });
    if (tools.empty()) {
      std::cerr << "fig5: --tools=" << tools_sel << " matches nothing\n";
      return 2;
    }
  }
  std::vector<harness::Query> queries;
  if (query_sel == "Q1" || query_sel == "both") {
    queries.push_back(harness::Query::kQ1);
  }
  if (query_sel == "Q2" || query_sel == "both") {
    queries.push_back(harness::Query::kQ2);
  }

  std::vector<unsigned> scales;
  for (const auto& spec : datagen::scale_table()) {
    if (spec.scale_factor >= min_sf && spec.scale_factor <= max_sf) {
      scales.push_back(spec.scale_factor);
    }
  }

  // results[query][tool label][scale]
  std::map<std::string, std::map<std::string, std::map<unsigned, Cell>>> res;

  // The largest scale's dataset outlives the loop: the smoke gate below
  // reuses it instead of paying a second datagen pass.
  datagen::Dataset top_ds;
  for (const unsigned sf : scales) {
    auto ds = datagen::generate(datagen::params_for_scale(sf, seed));
    std::fprintf(stderr, "[fig5] scale %u: %zu nodes, %zu edges, %zu change sets\n",
                 sf, ds.initial.num_nodes(), ds.initial.num_edges(),
                 ds.changes.size());
    for (const harness::Query q : queries) {
      if (verify) {
        harness::verify_tools(tools, q, ds.initial, ds.changes);
      }
      for (const auto& tool : tools) {
        const auto rep =
            harness::run_repeated(tool, q, ds.initial, ds.changes, repeats);
        auto& cell = res[harness::query_name(q)][tool.label][sf];
        cell.initial = rep.load_and_initial.geomean;
        cell.update = rep.update_and_reeval.geomean;
      }
    }
    if (sf == scales.back()) top_ds = std::move(ds);
  }

  const auto emit = [&](const char* qname, bool update_phase) {
    harness::SeriesTable table;
    table.title = std::string(qname) +
                  (update_phase ? " — update and reevaluation [s]"
                                : " — load and initial evaluation [s]");
    for (const unsigned sf : scales) table.rows.push_back(std::to_string(sf));
    for (const auto& tool : tools) table.cols.push_back(tool.label);
    table.cells.assign(scales.size(),
                       std::vector<double>(tools.size(), -1.0));
    for (std::size_t r = 0; r < scales.size(); ++r) {
      for (std::size_t c = 0; c < tools.size(); ++c) {
        const Cell& cell = res[qname][tools[c].label][scales[r]];
        table.cells[r][c] = update_phase ? cell.update : cell.initial;
      }
    }
    harness::print_table(std::cout, table);
    if (csv) harness::print_csv(std::cout, table);
  };

  std::printf("Fig. 5: execution times, geometric mean of %d runs\n\n",
              repeats);
  for (const harness::Query q : queries) {
    const char* qn = harness::query_name(q);
    if (phase_sel == "initial" || phase_sel == "both") emit(qn, false);
    if (phase_sel == "update" || phase_sel == "both") emit(qn, true);
  }

  // --- ingestion throughput (change sets / second) ---------------------------
  // Serial sharded ingestion (every shard applies epoch t, barrier, t+1)
  // vs the asynchronous pipeline at depths 1, 2 and 4, on the Q2 update
  // phase. Geomean update-phase wall time over `repeats` runs; the answer
  // sequences are identical by construction (differentially gated in the
  // test suite and in --smoke), so this isolates pure schedule overhead.
  // The unsharded engine's row is the baseline the sharded schedules are
  // judged against; it is reported, not gated.
  ThroughputResult tr;
  if (pipeline > 0) {
    const unsigned tsf = throughput_sf != 0
                             ? throughput_sf
                             : (scales.empty() ? 1 : scales.back());
    datagen::Dataset tp_ds_storage;
    const datagen::Dataset* tp_ds = &top_ds;
    if (scales.empty() || tsf != scales.back()) {
      tp_ds_storage = datagen::generate(datagen::params_for_scale(tsf, seed));
      tp_ds = &tp_ds_storage;
    }
    tr.ran = true;
    tr.scale = tsf;
    tr.change_sets = tp_ds->changes.size();
    tr.shards = pshards;
    const double n_cs = static_cast<double>(tr.change_sets);

    const auto measure = [&](const harness::ToolSpec& tool, int depth) {
      const auto rep = harness::run_repeated(tool, harness::Query::kQ2,
                                             tp_ds->initial, tp_ds->changes,
                                             repeats);
      ThroughputEntry e;
      e.depth = depth;
      e.update_s = rep.update_and_reeval.geomean;
      e.cs_per_s = n_cs / e.update_s;
      return e;
    };
    harness::ToolSpec serial_inc;
    for (const auto& t : harness::sharded_tools(pshards)) {
      if (t.key == "grb-sharded-incremental") serial_inc = t;
    }
    tr.unsharded = measure(harness::find_tool("grb-incremental"), 0);
    tr.serial = measure(serial_inc, 0);
    std::printf(
        "Ingestion throughput (Q2, SF %u, %zu change sets, %d shards):\n"
        "  unsharded:      %.4gs (%.4g cs/s)\n"
        "  serial barrier: %.4gs (%.4g cs/s)\n",
        tsf, tr.change_sets, pshards, tr.unsharded.update_s,
        tr.unsharded.cs_per_s, tr.serial.update_s, tr.serial.cs_per_s);
    for (const int depth : {1, 2, 4}) {
      const ThroughputEntry e =
          measure(harness::pipelined_tools(pshards, depth)[1], depth);
      tr.pipelined.push_back(e);
      std::printf("  pipeline depth %d: %.4gs (%.4g cs/s, %.2fx serial)\n",
                  depth, e.update_s, e.cs_per_s,
                  e.cs_per_s / tr.serial.cs_per_s);
    }
  }

  // --- shape checks (Sec. IV qualitative claims) -----------------------------
  // Only meaningful with the full tool set: a --tools filter leaves holes in
  // `res` that would read as spurious FAILs.
  if (scales.size() >= 2 && queries.size() == 2 && phase_sel == "both" &&
      tools_sel.empty()) {
    const unsigned top = scales.back();
    const auto t = [&](const char* q, const char* tool, bool upd) {
      const Cell& c = res[q][tool][top];
      return upd ? c.update : c.initial;
    };
    struct Check {
      const char* what;
      bool ok;
    };
    const std::vector<Check> checks = {
        {"initial: GraphBLAS Batch is not slower than NMF Incremental (Q1)",
         t("Q1", "GraphBLAS Batch", false) <=
             t("Q1", "NMF Incremental", false)},
        {"initial: NMF Incremental is the slowest tool (Q2)",
         t("Q2", "NMF Incremental", false) >=
             t("Q2", "GraphBLAS Batch", false) &&
             t("Q2", "NMF Incremental", false) >=
                 t("Q2", "NMF Batch", false)},
        {"update: GraphBLAS Incremental beats GraphBLAS Batch (Q2)",
         t("Q2", "GraphBLAS Incremental", true) <
             t("Q2", "GraphBLAS Batch", true)},
        {"update: NMF Incremental beats NMF Batch (Q2)",
         t("Q2", "NMF Incremental", true) < t("Q2", "NMF Batch", true)},
        {"update: 8 threads speed up GraphBLAS Batch (Q2)",
         t("Q2", "GraphBLAS Batch (8 threads)", true) <
             t("Q2", "GraphBLAS Batch", true)},
        {"update: threading gains little for GraphBLAS Incremental (Q2)",
         t("Q2", "GraphBLAS Incremental (8 threads)", true) >
             0.5 * t("Q2", "GraphBLAS Incremental", true)},
        {"update: GraphBLAS Incremental is competitive with NMF (Q1)",
         t("Q1", "GraphBLAS Incremental", true) <
             10.0 * t("Q1", "NMF Incremental", true)},
    };
    std::printf("Shape checks against the paper's Sec. IV (at scale %u):\n",
                top);
    int passed = 0;
    for (const auto& c : checks) {
      std::printf("  [%s] %s\n", c.ok ? "PASS" : "FAIL", c.what);
      passed += c.ok ? 1 : 0;
    }
    std::printf("%d/%zu shape checks passed\n", passed, checks.size());
  }

  // --- CI smoke: the incremental-vs-recompute runtime trend ------------------
  // Qualitative only (no absolute numbers), and Q2 only: Q2's incremental
  // advantage is the paper's order-of-magnitude claim and survives noisy CI
  // runners, whereas Q1's small-scale gap is a noise-level margin that would
  // make the gate flaky.
  SmokeResult sr;
  if (smoke) {
    if (scales.empty() || (phase_sel != "update" && phase_sel != "both") ||
        std::find(queries.begin(), queries.end(), harness::Query::kQ2) ==
            queries.end()) {
      std::cerr << "fig5 smoke: needs at least one scale, the update phase, "
                   "and Q2\n";
      return 2;
    }
    const unsigned top = scales.back();
    const char* qn = harness::query_name(harness::Query::kQ2);
    const auto inc = res[qn].find("GraphBLAS Incremental");
    const auto batch = res[qn].find("GraphBLAS Batch");
    if (inc == res[qn].end() || batch == res[qn].end()) {
      std::cerr << "fig5 smoke: needs the GraphBLAS Batch and GraphBLAS "
                   "Incremental tools (check --tools)\n";
      return 2;
    }
    sr.ran = true;
    sr.scale = top;
    sr.incremental_s = inc->second.at(top).update;
    sr.batch_s = batch->second.at(top).update;
    sr.trend_ok = sr.incremental_s < sr.batch_s;
    std::printf("[%s] smoke %s: incremental %.4gs %s batch %.4gs (SF %u)\n",
                sr.trend_ok ? "PASS" : "FAIL", qn, sr.incremental_s,
                sr.trend_ok ? "<" : ">=", sr.batch_s, top);

    const auto& inc_tool = harness::find_tool("grb-incremental");
    const datagen::Dataset& ds = top_ds;  // generated by the timing loop

    // --- sharded gate --------------------------------------------------------
    // Determinism: the sharded engines' answer sequences must be
    // byte-identical to the unsharded ones on the smoke dataset.
    if (shards > 0) {
      sr.sharded_ran = true;
      harness::ToolSpec sharded_inc;
      for (const auto& t : harness::sharded_tools(shards)) {
        if (t.key == "grb-sharded-incremental") sharded_inc = t;
      }
      try {
        harness::verify_tools({inc_tool, sharded_inc}, harness::Query::kQ2,
                              ds.initial, ds.changes);
        sr.sharded_answers_ok = true;
      } catch (const std::exception& e) {
        std::cerr << "sharded answer mismatch: " << e.what() << "\n";
      }
      std::printf("[%s] smoke sharded: %d-shard answers %s unsharded (%s)\n",
                  sr.sharded_answers_ok ? "PASS" : "FAIL", shards,
                  sr.sharded_answers_ok ? "match" : "DIVERGE from",
                  harness::query_name(harness::Query::kQ2));
    }

    // --- pipeline gates ------------------------------------------------------
    // (1) Determinism: the pipelined engines' answer sequences must be
    // byte-identical to the serial schedule on the smoke dataset — through
    // run_once, so the streamed overlap path is what gets compared. (2) A
    // collapse detector on the throughput sweep above: the best pipelined
    // depth must retain at least half the serial schedule's cs/s. This is
    // deliberately NOT a speedup gate — CI runners are noisy single-core
    // boxes — it catches the pipeline regressing into pathological
    // serialisation (lock convoy, per-epoch reallocation), not missing wins.
    if (pipeline > 0) {
      sr.pipeline_ran = true;
      sr.pipeline_depth = pipeline;
      std::vector<harness::ToolSpec> pipe_tools = {inc_tool};
      for (const auto& t : harness::pipelined_tools(pshards, pipeline)) {
        pipe_tools.push_back(t);
      }
      try {
        harness::verify_tools(pipe_tools, harness::Query::kQ2, ds.initial,
                              ds.changes);
        sr.pipeline_answers_ok = true;
      } catch (const std::exception& e) {
        std::cerr << "pipelined answer mismatch: " << e.what() << "\n";
      }
      std::printf(
          "[%s] smoke pipeline: depth-%d answers %s the serial schedule "
          "(%s)\n",
          sr.pipeline_answers_ok ? "PASS" : "FAIL", pipeline,
          sr.pipeline_answers_ok ? "match" : "DIVERGE from",
          harness::query_name(harness::Query::kQ2));

      double best_cs = -1.0;
      for (const ThroughputEntry& e : tr.pipelined) {
        best_cs = std::max(best_cs, e.cs_per_s);
      }
      sr.pipeline_throughput_ok =
          tr.ran && best_cs >= 0.5 * tr.serial.cs_per_s;
      std::printf(
          "[%s] smoke pipeline throughput: best %.4g cs/s vs serial %.4g "
          "cs/s (floor 0.5x)\n",
          sr.pipeline_throughput_ok ? "PASS" : "FAIL", best_cs,
          tr.serial.cs_per_s);
    }

    // --- telemetry overhead gate ---------------------------------------------
    // The trace spans sit on the ingestion path (route/apply/merge): time
    // the pipelined update loop with spans fully off (kOff, one relaxed
    // load each) and at the shipping default (kMetricsOnly, two clock
    // reads + a histogram record per span). Min of 3 runs a side steps
    // around CI noise; the instrumented loop must stay within 1.5x of the
    // baseline plus 50 ms of absolute slack (sub-second loops would
    // otherwise gate on scheduler jitter, not on span cost).
    if (pipeline > 0) {
      sr.telemetry_ran = true;
      harness::ToolSpec pipe_inc;
      for (const auto& t : harness::pipelined_tools(pshards, pipeline)) {
        if (t.key == "grb-pipelined-incremental") pipe_inc = t;
      }
      const auto timed_update_loop = [&] {
        grb::ThreadGuard guard(pipe_inc.threads);
        auto engine = harness::make_engine(pipe_inc, harness::Query::kQ2);
        engine->load(ds.initial);
        engine->initial();
        const grbsm::support::Timer t;
        for (const auto& cs : ds.changes) engine->update(cs);
        return t.elapsed_s();
      };
      const telemetry::TelemetryMode prior = telemetry::mode();
      const auto min_of_3 = [&](telemetry::TelemetryMode m) {
        telemetry::set_mode(m);
        double best = timed_update_loop();
        for (int r = 1; r < 3; ++r) {
          best = std::min(best, timed_update_loop());
        }
        return best;
      };
      sr.telemetry_off_s = min_of_3(telemetry::TelemetryMode::kOff);
      sr.telemetry_on_s = min_of_3(telemetry::TelemetryMode::kMetricsOnly);
      telemetry::set_mode(prior);
      sr.telemetry_overhead_ok =
          sr.telemetry_on_s <= 1.5 * sr.telemetry_off_s + 0.05;
      std::printf(
          "[%s] smoke telemetry overhead: update loop %.4gs instrumented "
          "vs %.4gs off (budget 1.5x + 50 ms)\n",
          sr.telemetry_overhead_ok ? "PASS" : "FAIL", sr.telemetry_on_s,
          sr.telemetry_off_s);
    }

    // --- top-k pruning gates -------------------------------------------------
    // A removal-heavy stream forces the re-rank path on every removal
    // epoch; the pruned extraction must (1) stay byte-identical to the
    // unpruned batch oracle (and the sharded/pipelined engines, when
    // enabled), (2) keep the counters consistent — every considered block
    // either scanned or skipped, so a code path that forgets to count
    // breaks the equation instead of silently rotting — and (3) actually
    // prune: skip a minimum fraction of the considered blocks. The floor
    // is deliberately low (10%); differential suites own correctness,
    // this gate owns "the pruning is alive".
    {
      sr.prune_ran = true;
      auto rp = datagen::params_for_scale(top, seed);
      rp.change_sets = 30;
      rp.insert_elements = 300 * top;
      rp.frac_removals = 0.25;
      const datagen::Dataset rds = datagen::generate(rp);
      std::vector<harness::ToolSpec> prune_tools = {
          harness::find_tool("grb-batch"), inc_tool};
      if (shards > 0) {
        for (const auto& t : harness::sharded_tools(shards)) {
          if (t.key == "grb-sharded-incremental") prune_tools.push_back(t);
        }
      }
      if (pipeline > 0) {
        for (const auto& t : harness::pipelined_tools(pshards, pipeline)) {
          if (t.key == "grb-pipelined-incremental") prune_tools.push_back(t);
        }
      }
      const telemetry::RegistrySnapshot before =
          telemetry::Registry::instance().snapshot();
      try {
        harness::verify_tools(prune_tools, harness::Query::kQ2, rds.initial,
                              rds.changes);
        harness::verify_tools(prune_tools, harness::Query::kQ1, rds.initial,
                              rds.changes);
        sr.prune_answers_ok = true;
      } catch (const std::exception& e) {
        std::cerr << "pruned answer mismatch: " << e.what() << "\n";
      }
      sr.prune = queries::prune_stats_of(
          telemetry::Registry::instance().snapshot().delta_since(before));
      sr.prune_counters_ok =
          sr.prune.blocks_scanned + sr.prune.blocks_skipped ==
              sr.prune.blocks_total &&
          sr.prune.blocks_total > 0 && sr.prune.pool_hits > 0;
      sr.prune_skip_ok =
          static_cast<double>(sr.prune.blocks_skipped) >=
          0.10 * static_cast<double>(sr.prune.blocks_total);
      std::printf(
          "[%s] smoke pruning: removal-heavy answers %s the unpruned "
          "oracle\n",
          sr.prune_answers_ok ? "PASS" : "FAIL",
          sr.prune_answers_ok ? "match" : "DIVERGE from");
      std::printf(
          "[%s] smoke pruning counters: %llu scanned + %llu skipped == %llu "
          "considered, %llu pool hits, %llu pool rebuilds, %llu bound "
          "rebuilds\n",
          sr.prune_counters_ok ? "PASS" : "FAIL",
          static_cast<unsigned long long>(sr.prune.blocks_scanned),
          static_cast<unsigned long long>(sr.prune.blocks_skipped),
          static_cast<unsigned long long>(sr.prune.blocks_total),
          static_cast<unsigned long long>(sr.prune.pool_hits),
          static_cast<unsigned long long>(sr.prune.pool_rebuilds),
          static_cast<unsigned long long>(sr.prune.bound_rebuilds));
      std::printf(
          "[%s] smoke pruning skip rate: %.1f%% of considered blocks "
          "skipped (floor 10%%)\n",
          sr.prune_skip_ok ? "PASS" : "FAIL",
          sr.prune.blocks_total == 0
              ? 0.0
              : 100.0 * static_cast<double>(sr.prune.blocks_skipped) /
                    static_cast<double>(sr.prune.blocks_total));
    }
  }
  if (!json_path.empty()) {
    write_json(json_path, seed, repeats, shards, scales, tools, queries, res,
               sr, tr);
  }
  // Every engine is destroyed (run_repeated and the smoke loops are all
  // scoped) and their worker threads joined, so the span rings are
  // quiescent for the export.
  if (!trace_path.empty()) {
    if (telemetry::Tracer::instance().export_chrome_trace(trace_path)) {
      std::fprintf(stderr, "fig5: trace written to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "fig5: cannot write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  return !smoke || sr.ok() ? 0 : 1;
}
