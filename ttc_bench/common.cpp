#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "harness/registry.hpp"

namespace ttcb {

datagen::Dataset make_dataset(const StreamSpec& spec, std::uint64_t seed) {
  datagen::GeneratorParams p = datagen::params_for_scale(spec.sf, seed);
  // The initial graph is drawn before the stream, so these three knobs
  // change only the change sets, never the graph they apply to.
  p.change_sets = spec.change_sets;
  p.insert_elements = spec.change_sets * 40;
  p.frac_removals = spec.frac_removals;
  return datagen::generate(p);
}

std::size_t edges_at_end(const datagen::Dataset& ds) {
  sm::SocialGraph g = ds.initial;
  for (const sm::ChangeSet& cs : ds.changes) sm::apply_change_set(g, cs);
  return g.num_edges();
}

double ops_per_change_set(const datagen::Dataset& ds) {
  if (ds.changes.empty()) return 0.0;
  std::size_t ops = 0;
  for (const sm::ChangeSet& cs : ds.changes) ops += cs.size();
  return static_cast<double>(ops) / static_cast<double>(ds.changes.size());
}

// --- Report ------------------------------------------------------------------

void Report::failed_op(const std::string& what) {
  if (failed_ < 5) {
    std::fprintf(stderr, "ttc_bench: failed: %s\n", what.c_str());
  }
  ++failed_;
}

void Report::mismatch(const std::string& what) {
  if (mismatches_ < 5) {
    std::fprintf(stderr, "ttc_bench: MISMATCH: %s\n", what.c_str());
  }
  ++mismatches_;
}

bool Report::print(const std::vector<MetricDef>& defs,
                   bool unset_is_zero) const {
  bool ok = true;
  for (const auto& [name, v] : values_) {
    if (std::none_of(defs.begin(), defs.end(),
                     [&](const MetricDef& d) { return name == d.name; })) {
      std::fprintf(stderr, "ttc_bench: metric %s is not defined\n",
                   name.c_str());
      ok = false;
    }
  }
  for (const MetricDef& d : defs) {
    const auto it = values_.find(d.name);
    if (it == values_.end() && !unset_is_zero) {
      std::fprintf(stderr, "ttc_bench: workload did not set %s\n", d.name);
      ok = false;
    }
    std::printf("%s %.17g %s\n", d.name,
                it == values_.end() ? 0.0 : it->second, d.unit);
  }
  std::printf("tally attempted=%llu failed=%llu correct=%d\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              mismatches_ == 0 ? 1 : 0);
  std::fflush(stdout);
  return ok;
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

// --- oracle ------------------------------------------------------------------

Oracle nmf_oracle(const datagen::Dataset& ds) {
  Oracle o;
  for (const harness::Query q : {harness::Query::kQ1, harness::Query::kQ2}) {
    harness::EnginePtr engine = harness::make_engine("nmf-incremental", q);
    std::vector<std::string>& out = q == harness::Query::kQ1 ? o.q1 : o.q2;
    out.reserve(ds.changes.size() + 1);
    engine->load(ds.initial);
    out.push_back(engine->initial());
    double total_ms = 0.0;
    for (const sm::ChangeSet& cs : ds.changes) {
      const Clock::time_point t = Clock::now();
      out.push_back(engine->update(cs));
      total_ms += ms_since(t);
    }
    const double per_cs =
        ds.changes.empty() ? 0.0
                           : total_ms / static_cast<double>(ds.changes.size());
    (q == harness::Query::kQ1 ? o.q1_update_ms : o.q2_update_ms) = per_cs;
  }
  return o;
}

void check_answers(const std::vector<std::string>& answers,
                   const Oracle& oracle, harness::Query q,
                   const std::string& what, Report& r) {
  const std::vector<std::string>& want = oracle.of(q);
  r.attempt(answers.size());
  for (std::size_t k = 0; k < answers.size(); ++k) {
    if (k >= want.size() || answers[k] != want[k]) {
      r.mismatch(what + " " + harness::query_name(q) + " after " +
                 std::to_string(k) + " change sets: got '" + answers[k] +
                 "', oracle '" + (k < want.size() ? want[k] : "") + "'");
    }
  }
}

// --- registry deltas ---------------------------------------------------------

std::uint64_t RegistryDelta::counter(std::string_view name) const {
  const std::uint64_t a = after.value_or(name, 0);
  const std::uint64_t b = before.value_or(name, 0);
  return a >= b ? a - b : 0;
}

telemetry::HistogramSnapshot RegistryDelta::histogram(
    std::string_view name) const {
  const telemetry::HistogramSnapshot* a = after.histogram(name);
  if (a == nullptr) return {};
  const telemetry::HistogramSnapshot* b = before.histogram(name);
  return b != nullptr ? a->delta_since(*b) : *a;
}

void report_registry_layers(const RegistryDelta& d, Report& r) {
  const std::uint64_t total = d.counter("prune.blocks_total");
  const std::uint64_t skipped = d.counter("prune.blocks_skipped");
  r.metric("prune.blocks_total", static_cast<double>(total));
  r.metric("prune.blocks_skipped", static_cast<double>(skipped));
  r.metric("prune.skip_ratio", total == 0 ? 0.0
                                          : static_cast<double>(skipped) /
                                                static_cast<double>(total));
  r.metric("prune.pool_hits",
           static_cast<double>(d.counter("prune.pool_hits")));
  r.metric("prune.bound_rebuilds",
           static_cast<double>(d.counter("prune.bound_rebuilds")));

  const std::uint64_t misses = d.counter("arena.misses");
  const std::uint64_t leases =
      d.counter("arena.hits") + d.counter("arena.steals") + misses;
  r.metric("grb.arena_leases", static_cast<double>(leases));
  r.metric("grb.arena_misses", static_cast<double>(misses));
  r.metric("grb.arena_hit_rate",
           leases == 0 ? 1.0
                       : static_cast<double>(leases - misses) /
                             static_cast<double>(leases));

  for (const char* phase : {"route", "apply", "merge", "publish", "answer"}) {
    const std::string base = std::string("epoch.") + phase + "_us";
    const telemetry::HistogramSnapshot h = d.histogram(base);
    r.metric(base + "_p50", h.p50());
    r.metric(base + "_p99", h.p99());
  }
}

double shard_apply_skew(const RegistryDelta& d, std::size_t shards) {
  double max_mean = 0.0;
  double sum_mean = 0.0;
  for (std::size_t s = 0; s < shards; ++s) {
    const double m =
        d.histogram("epoch.shard" + std::to_string(s) + ".apply_us").mean();
    max_mean = std::max(max_mean, m);
    sum_mean += m;
  }
  return sum_mean == 0.0 ? 0.0
                         : max_mean / (sum_mean / static_cast<double>(shards));
}

// --- memory ------------------------------------------------------------------

double peak_rss_mib(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

}  // namespace ttcb
