// Shared pieces of the ttc_bench workloads: run options, dataset shapes,
// the metric report, percentiles, the NMF oracle, telemetry-registry deltas
// and process memory readings.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datagen/generator.hpp"
#include "harness/engine.hpp"
#include "support/telemetry/metrics.hpp"

namespace ttcb {

namespace telemetry = grbsm::telemetry;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point t) {
  return seconds_since(t) * 1e3;
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline Clock::time_point after_s(Clock::time_point t, double s) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(s));
}

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  /// Length of a run's measured part. The work is sized from it alone;
  /// set-up, warm-up and the oracle come on top.
  double seconds = 20.0;
  /// Chrome-trace output. Empty selects the untraced run, which reports the
  /// end-to-end metrics; a path selects the traced run, which reports the
  /// per-layer metrics.
  std::string trace_path;
  /// Smoke-test size: SF-2, 60 change sets, daemon writes at 200 cs/s.
  bool toy = false;
};

/// Input shape of one workload. Every change set carries 40 weighted
/// elements (a comment weighs 3, see datagen).
struct StreamSpec {
  unsigned sf = 64;
  std::size_t change_sets = 1000;
  double frac_removals = 0.0;
};

[[nodiscard]] datagen::Dataset make_dataset(const StreamSpec& spec,
                                            std::uint64_t seed);

/// Edges of the graph after the whole stream (initial graph plus every
/// change set applied in order).
[[nodiscard]] std::size_t edges_at_end(const datagen::Dataset& ds);

/// Mean number of change operations per change set.
[[nodiscard]] double ops_per_change_set(const datagen::Dataset& ds);

/// One metric the benchmark defines: its name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// The metrics and operation tally of one run. Workloads set the values
/// they measure; the driver prints them against its metric table.
class Report {
 public:
  void metric(const std::string& name, double value) { values_[name] = value; }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// An operation the system refused or failed (it still counts as
  /// attempted).
  void failed_op(const std::string& what);
  /// A served answer that differs from the oracle.
  void mismatch(const std::string& what);
  [[nodiscard]] bool correct() const noexcept { return mismatches_ == 0; }

  /// Prints `name value unit` for every entry of `defs`, in order, then the
  /// tally line `tally attempted=N failed=N correct=0|1`. A name the
  /// workload left unset prints 0 when `unset_is_zero` (a layer this
  /// workload does not run) and is an error otherwise, as is a set name
  /// missing from `defs`. Returns false on such an error.
  bool print(const std::vector<MetricDef>& defs, bool unset_is_zero) const;

 private:
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t mismatches_ = 0;
};

/// Quantile q of `v`, linearly interpolated between closest ranks; 0 for an
/// empty sample. Takes a copy because it sorts.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double sum(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Reference answers from nmf-incremental, a code path that shares nothing
/// with src/queries. Index k is the answer after k change sets (0 = the
/// initial evaluation).
struct Oracle {
  std::vector<std::string> q1;
  std::vector<std::string> q2;
  /// The oracle's own mean update time per change set (a reference, never
  /// a claim).
  double q1_update_ms = 0.0;
  double q2_update_ms = 0.0;

  [[nodiscard]] const std::vector<std::string>& of(harness::Query q) const {
    return q == harness::Query::kQ1 ? q1 : q2;
  }
};
[[nodiscard]] Oracle nmf_oracle(const datagen::Dataset& ds);

/// Byte-compares answers[k] against the oracle's answer k for every k; each
/// answer counts as one attempted operation.
void check_answers(const std::vector<std::string>& answers,
                   const Oracle& oracle, harness::Query q,
                   const std::string& what, Report& r);

/// Difference of two telemetry-registry snapshots (a process's own registry
/// or a daemon's kMetrics frames).
struct RegistryDelta {
  telemetry::RegistrySnapshot before;
  telemetry::RegistrySnapshot after;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] telemetry::HistogramSnapshot histogram(
      std::string_view name) const;
};

/// prune.*, grb.arena_* and the epoch.*_us phase histograms from a delta.
void report_registry_layers(const RegistryDelta& d, Report& r);
/// shard.apply_skew: max over shards of the mean epoch.shard<i>.apply_us,
/// divided by the mean over shards (0 with no shard samples).
[[nodiscard]] double shard_apply_skew(const RegistryDelta& d,
                                      std::size_t shards);

/// VmHWM of a process ("self" or a pid) in MiB; 0 when unreadable.
[[nodiscard]] double peak_rss_mib(const std::string& pid = "self");
/// Resets this process's VmHWM to its current RSS, so a later peak reading
/// excludes earlier phases (dataset generation). Best effort.
void reset_peak_rss();

// --- workloads -------------------------------------------------------------

void run_ttc(const Options& opt, bool removals, Report& r);
void run_sharded_stream(const Options& opt, Report& r);
void run_daemon_mixed(const Options& opt, Report& r);

}  // namespace ttcb
