// ttc_bench: the repository's benchmark, one workload per process.
//
//   ttc_bench --workload=<name|all> --seed=N [--seconds=S] [--trace=PATH]
//             [--toy]
//
// Prints every metric as `name value unit`, then the line
// `tally attempted=N failed=N correct=0|1`. Without --trace the metrics are
// the end-to-end ones (README.md defines them); with --trace=PATH the run is
// the traced replay: it writes a Chrome trace to PATH and prints the
// per-layer metrics instead. Every answer is byte-checked against the NMF
// oracle. Exits 1 on a wrong answer or an internal error, 2 on a bad command
// line; failed operations are counted in the tally. --workload=all runs each
// workload in a process of its own. --toy shrinks every workload to smoke
// size.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/flags.hpp"

namespace {

using ttcb::MetricDef;

const std::vector<std::string> kWorkloads = {"ttc-insert", "ttc-removal",
                                             "sharded-stream", "daemon-mixed"};

const std::vector<MetricDef> kEndToEnd = {
    {"q1_update_p50_ms", "ms"}, {"q1_update_p99_ms", "ms"},
    {"q2_update_p50_ms", "ms"}, {"q2_update_p99_ms", "ms"},
    {"q1_cs_per_s", "1/s"},     {"q2_cs_per_s", "1/s"},
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"queries.apply_ms", "ms"},
    {"queries.apply_p99_ms", "ms"},
    {"queries.q1_fold_ms", "ms"},
    {"queries.q2_affected_ms", "ms"},
    {"queries.q2_rescore_ms", "ms"},
    {"queries.q2_fold_ms", "ms"},
    {"queries.q1_topk_ms", "ms"},
    {"queries.q2_topk_ms", "ms"},
    {"queries.attributed_share", "ratio"},
    {"queries.delta_ops_per_cs", "ops/cs"},
    {"queries.q1_changed_per_cs", "count/cs"},
    {"queries.q2_changed_per_cs", "count/cs"},
    {"queries.q2_affected_per_cs", "count/cs"},
    {"queries.q2_useful_ratio", "ratio"},
    {"queries.q2_likers_per_rescore", "count"},
    {"prune.blocks_total", "count"},
    {"prune.blocks_skipped", "count"},
    {"prune.skip_ratio", "ratio"},
    {"prune.pool_hits", "count"},
    {"prune.bound_rebuilds", "count"},
    {"grb.arena_leases", "count"},
    {"grb.arena_misses", "count"},
    {"grb.arena_hit_rate", "ratio"},
    {"shard.route_ms", "ms"},
    {"shard.apply_ms", "ms"},
    {"shard.apply_skew", "ratio"},
    {"shard.merge_ms", "ms"},
    {"shard.ops_max_share", "ratio"},
    {"daemon.apply_ack_ms", "ms"},
    {"daemon.read_p50_ms", "ms"},
    {"daemon.read_p99_ms", "ms"},
    {"daemon.gen_late_p99_ms", "ms"},
    {"daemon.backlog_max", "count"},
    {"epoch.route_us_p50", "us"},
    {"epoch.route_us_p99", "us"},
    {"epoch.apply_us_p50", "us"},
    {"epoch.apply_us_p99", "us"},
    {"epoch.merge_us_p50", "us"},
    {"epoch.merge_us_p99", "us"},
    {"epoch.publish_us_p50", "us"},
    {"epoch.publish_us_p99", "us"},
    {"epoch.answer_us_p50", "us"},
    {"epoch.answer_us_p99", "us"},
    {"nmf.q1_update_ms", "ms"},
    {"nmf.q2_update_ms", "ms"},
    {"datagen.generate_s", "s"},
    {"model.edges_end", "count"},
    {"trace.overhead_frac", "ratio"},
};

void usage() {
  std::fprintf(stderr,
               "usage: ttc_bench --workload=<ttc-insert|ttc-removal|"
               "sharded-stream|daemon-mixed|all>\n"
               "                 [--seed=N] [--seconds=S] [--trace=PATH] "
               "[--toy]\n");
}

/// --workload=all: re-runs this binary once per workload, each in its own
/// process, with the same flags. A trace path gets the workload appended.
int run_all(char** argv, const ttcb::Options& opt) {
  int rc = 0;
  for (const std::string& w : kWorkloads) {
    std::vector<std::string> args = {
        "/proc/self/exe", "--workload=" + w,
        "--seed=" + std::to_string(opt.seed),
        "--seconds=" + std::to_string(opt.seconds)};
    if (!opt.trace_path.empty()) {
      args.push_back("--trace=" + opt.trace_path + "." + w + ".json");
    }
    if (opt.toy) args.emplace_back("--toy");
    std::vector<char*> child_argv;
    for (std::string& a : args) child_argv.push_back(a.data());
    child_argv.push_back(nullptr);
    std::printf("# workload %s\n", w.c_str());
    std::fflush(stdout);
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execv(child_argv[0], child_argv.data());
      ::_exit(127);
    }
    int status = 0;
    if (pid < 0 || ::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "%s: workload %s failed\n", argv[0], w.c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  grbsm::support::Flags flags(argc, argv);
  ttcb::Options opt;
  opt.workload = flags.get("workload", "");
  opt.seed = static_cast<std::uint64_t>(
      flags.get_int("seed", static_cast<std::int64_t>(opt.seed)));
  opt.seconds = flags.get_double("seconds", opt.seconds);
  opt.trace_path = flags.get("trace", "");
  opt.toy = flags.get_bool("toy", false);
  flags.reject_unqueried("ttc_bench");
  if (opt.seconds <= 0.0) {
    usage();
    return 2;
  }
  if (opt.workload == "all") return run_all(argv, opt);

  ttcb::Report report;
  try {
    if (opt.workload == "ttc-insert" || opt.workload == "ttc-removal") {
      ttcb::run_ttc(opt, opt.workload == "ttc-removal", report);
    } else if (opt.workload == "sharded-stream") {
      ttcb::run_sharded_stream(opt, report);
    } else if (opt.workload == "daemon-mixed") {
      ttcb::run_daemon_mixed(opt, report);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ttc_bench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  const bool traced = !opt.trace_path.empty();
  const bool printed = report.print(traced ? kPerLayer : kEndToEnd, traced);
  return printed && report.correct() ? 0 : 1;
}
