// The in-process workloads.
//
//   ttc-insert / ttc-removal  grb-incremental, the paper's headline engine,
//                             on SF-64 with 1000 change sets of 40 elements
//                             (ttc-removal: a quarter of the edge ops are
//                             removals, which force the pruned top-k
//                             re-rank).
//   sharded-stream            the ttc-insert stream through
//                             grb-pipelined-incremental at 3 shards,
//                             depth 2.
//
// The untraced run times every change set, closed loop, over whole passes of
// the stream, and keeps each change set's best time over the passes. The
// traced run replays a prefix of the stream by calling each layer's public
// function from here, one bench.changeset span per change set with a child
// span per layer call, and sums the layer times from the recorded spans.
#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "grb/context.hpp"
#include "harness/registry.hpp"
#include "queries/grb_state.hpp"
#include "queries/q1.hpp"
#include "queries/q2.hpp"
#include "shard/pipelined_engine.hpp"
#include "shard/sharded_state.hpp"
#include "support/telemetry/trace.hpp"

namespace ttcb {

namespace {

using harness::Query;
using queries::Index;
using U64 = std::uint64_t;

/// Change sets in the untimed warm-up pass that precedes the timed ones.
constexpr std::size_t kWarmupSets = 100;
/// The traced run replays a prefix of the stream, this share of it per
/// second of --seconds (two thirds at 20 s): each replayed change set runs
/// three times (untraced reference, traced engine, layer replay).
constexpr double kTracedSharePerSecond = 1.0 / 30.0;

enum class Kind { kSerial, kPipelined };

const harness::ToolSpec& tool_of(Kind k) {
  // Three shards at depth 2: the shard workers and the thread that routes
  // and merges make four threads, one per core of the 4-core machine the
  // run lengths are sized for. With a fifth thread (the registry's default
  // 4 shards) Q1 latency flipped between two modes from run to run.
  static const harness::ToolSpec kPipelined =
      harness::pipelined_tools(3, 2).at(1);
  return k == Kind::kSerial ? harness::find_tool("grb-incremental")
                            : kPipelined;
}

StreamSpec stream_spec(const Options& opt, double frac_removals) {
  StreamSpec s;
  s.frac_removals = frac_removals;
  if (opt.toy) {
    s.sf = 2;
    s.change_sets = 60;
  }
  return s;
}

/// Timed passes over the stream per second of --seconds, per query. A run's
/// work depends on its length alone, so runs of one length sample the same
/// change sets, and read peak memory after the same passes, on any machine.
/// A Q2 update costs about five Q1 updates: at 20 s the serial engine gets
/// four Q1 and two Q2 passes, 19-23 s of updates on a 4-core 2.1 GHz Xeon.
/// (A third Q2 pass took ttc-removal's Q2 p99 spread from 17% to 4%, but
/// made each run about 35 s, too long for the benchmark's run count.) The
/// pipelined engine's Q1 passes are cheap (0.7 s) and its Q1 latency is
/// mostly thread hand-offs, which the host slows in spells of a few
/// seconds, so it gets sixteen: with ten, Q1 p99 still spread near 20%
/// across seeds; with sixteen it read 1.36-1.45 ms over eight seeds.
struct PassRates {
  double q1;
  double q2;
};
PassRates passes_per_second(Kind k) {
  return k == Kind::kSerial ? PassRates{0.20, 0.10} : PassRates{0.80, 0.10};
}

std::size_t passes_for(double seconds, double per_second) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds * per_second)));
}

struct Pass {
  double setup_s = 0.0;  ///< load + initial evaluation
  /// Per change set: handed to the engine -> its answer returned.
  std::vector<double> latency_ms;
  /// Per change set: the previous answer (or the stream start) -> this
  /// answer. The same as the latency for a serial engine; for the
  /// pipelined one it is the change set's share of the stream time.
  std::vector<double> gap_ms;
  std::vector<std::string> answers;  ///< [k] = after k change sets
};

/// One pass of a fresh engine: the set-up (load + initial), then change sets
/// [0, n) closed loop. The pipelined engine runs update_stream's overlap
/// schedule (submit while the window has room, merge the oldest epoch when
/// it is full) through the engine's streaming calls, so each change set's
/// time from submit to merged answer is visible.
Pass run_pass(Kind kind, Query q, const datagen::Dataset& ds, std::size_t n) {
  const harness::ToolSpec& tool = tool_of(kind);
  const grb::ThreadGuard threads(tool.threads);
  harness::EnginePtr engine = harness::make_engine(tool, q);
  Pass p;
  const Clock::time_point t0 = Clock::now();
  engine->load(ds.initial);
  p.answers.push_back(engine->initial());
  p.setup_s = seconds_since(t0);
  p.latency_ms.reserve(n);
  p.gap_ms.reserve(n);
  p.answers.reserve(n + 1);
  Clock::time_point last = Clock::now();
  const auto answered = [&](std::string answer, Clock::time_point handed_in) {
    const Clock::time_point now = Clock::now();
    p.latency_ms.push_back(ms_between(handed_in, now));
    p.gap_ms.push_back(ms_between(last, now));
    p.answers.push_back(std::move(answer));
    last = now;
  };
  if (kind == Kind::kSerial) {
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point t = Clock::now();
      answered(engine->update(ds.changes[i]), t);
    }
  } else {
    auto& pe = dynamic_cast<shard::GrbPipelinedEngine&>(*engine);
    std::vector<Clock::time_point> submitted;
    submitted.reserve(n);
    const auto merge = [&] {
      shard::GrbPipelinedEngine::Merged m = pe.merge_one();
      answered(std::move(m.answer), submitted[m.epoch]);
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (pe.in_flight() >= pe.depth()) merge();
      submitted.push_back(Clock::now());
      pe.submit(ds.changes[i]);
    }
    while (pe.in_flight() > 0) merge();
  }
  return p;
}

Pass warmup_pass(Kind kind, Query q, const datagen::Dataset& ds) {
  return run_pass(kind, q, ds, std::min(kWarmupSets, ds.changes.size()));
}

void check_passes(const std::vector<Pass>& passes, const Oracle& oracle,
                  Query q, Report& r) {
  for (std::size_t i = 0; i < passes.size(); ++i) {
    check_answers(passes[i].answers, oracle, q,
                  "pass " + std::to_string(i), r);
  }
}

/// Per change set, the best time over the timed passes (every pass but the
/// warm-up at index 0). Interference from other tenants of the host only
/// ever adds time, and comes in bursts that rarely hit one change set in
/// every pass.
std::vector<double> best_of_passes(const std::vector<Pass>& passes,
                                   std::vector<double> Pass::*times) {
  std::vector<double> best = passes.at(1).*times;
  for (std::size_t k = 2; k < passes.size(); ++k) {
    const std::vector<double>& t = passes[k].*times;
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], t[i]);
    }
  }
  return best;
}

void report_query(Query q, const std::vector<Pass>& passes, Report& r) {
  const std::vector<double> lat = best_of_passes(passes, &Pass::latency_ms);
  const std::vector<double> gap = best_of_passes(passes, &Pass::gap_ms);
  const std::string pre = q == Query::kQ1 ? "q1" : "q2";
  r.metric(pre + "_update_p50_ms", quantile(lat, 0.50));
  r.metric(pre + "_update_p99_ms", quantile(lat, 0.99));
  r.metric(pre + "_cs_per_s", static_cast<double>(gap.size()) * 1e3 / sum(gap));
}

double median_setup_s(const std::vector<Pass>& passes) {
  std::vector<double> s;
  for (const Pass& p : passes) s.push_back(p.setup_s);
  return median(std::move(s));
}

void run_untraced(const Options& opt, Kind kind, const StreamSpec& spec,
                  Report& r) {
  const datagen::Dataset ds = make_dataset(spec, opt.seed);
  reset_peak_rss();
  std::vector<Pass> q1{warmup_pass(kind, Query::kQ1, ds)};
  std::vector<Pass> q2{warmup_pass(kind, Query::kQ2, ds)};
  // Interleaved so each query's passes spread evenly over the run: next
  // comes the query with the smaller share of its passes done.
  const PassRates rates = passes_per_second(kind);
  const std::size_t k1 = passes_for(opt.seconds, rates.q1);
  const std::size_t k2 = passes_for(opt.seconds, rates.q2);
  while (q1.size() <= k1 || q2.size() <= k2) {
    const std::size_t done1 = q1.size() - 1;
    const std::size_t done2 = q2.size() - 1;
    if (done2 < k2 && (done1 >= k1 || done2 * k1 <= done1 * k2)) {
      q2.push_back(run_pass(kind, Query::kQ2, ds, ds.changes.size()));
    } else {
      q1.push_back(run_pass(kind, Query::kQ1, ds, ds.changes.size()));
    }
  }
  r.metric("peak_rss_mb", peak_rss_mib());

  const Oracle oracle = nmf_oracle(ds);
  check_passes(q1, oracle, Query::kQ1, r);
  check_passes(q2, oracle, Query::kQ2, r);

  report_query(Query::kQ1, q1, r);
  report_query(Query::kQ2, q2, r);
  r.metric("setup_s", median_setup_s(q1) + median_setup_s(q2));
}

// --- traced layer replay -----------------------------------------------------

/// What a replay counted, per query.
struct Counts {
  std::uint64_t changed = 0;   ///< Δscores entries
  std::uint64_t affected = 0;  ///< Q2 comments rescored
  std::uint64_t likers = 0;    ///< likers of the rescored comments
  std::vector<std::uint64_t> shard_ops;  ///< routed change ops per shard
};

/// The tail of q2_incremental_update after rescoring: keep the affected
/// entries whose score moved, merge them into the maintained vector, and
/// return them (Δscores).
grb::Vector<U64> fold_q2(const std::vector<Index>& affected,
                         const std::vector<U64>& rescored, Index nc,
                         grb::Vector<U64>& scores) {
  scores.resize(nc);
  std::vector<Index> idx;
  std::vector<U64> val;
  for (std::size_t k = 0; k < affected.size(); ++k) {
    if (scores.at_or(affected[k], 0) != rescored[k]) {
      idx.push_back(affected[k]);
      val.push_back(rescored[k]);
    }
  }
  auto delta = grb::Vector<U64>::adopt_sorted(nc, std::move(idx),
                                              std::move(val));
  grb::eWiseAdd(scores, grb::Second<U64>{}, scores, delta);
  return delta;
}

void q1_layers(const queries::GrbState& st, const queries::GrbDelta& delta,
               grb::Vector<U64>& scores, std::uint64_t epoch, Counts& c) {
  grb::Vector<U64> changed(0);
  {
    const telemetry::SpanScope span("q1.fold", epoch, nullptr);
    changed = queries::q1_incremental_update(st, delta, scores);
  }
  c.changed += changed.nvals();
  grb::recycle(std::move(changed));
}

void q2_layers(const queries::GrbState& st, const queries::GrbDelta& delta,
               grb::Vector<U64>& scores, std::uint64_t epoch, Counts& c) {
  std::vector<Index> affected;
  {
    const telemetry::SpanScope span("q2.affected", epoch, nullptr);
    affected = queries::q2_affected_comments(st, delta);
  }
  std::vector<U64> rescored(affected.size(), 0);
  {
    const telemetry::SpanScope span("q2.rescore", epoch, nullptr);
    for (std::size_t k = 0; k < affected.size(); ++k) {
      rescored[k] = queries::q2_comment_score(st, affected[k]);
    }
  }
  grb::Vector<U64> changed(0);
  {
    const telemetry::SpanScope span("q2.fold", epoch, nullptr);
    changed = fold_q2(affected, rescored, st.num_comments(), scores);
  }
  for (const Index a : affected) c.likers += st.likes().row_cols(a).size();
  c.affected += affected.size();
  c.changed += changed.nvals();
  grb::recycle(std::move(changed));
}

grb::Vector<U64> batch_scores(Query q, const queries::GrbState& st) {
  return q == Query::kQ1 ? queries::q1_batch_scores(st)
                         : queries::q2_batch_scores(st);
}

/// grb-incremental and its layers in lockstep. Per change set, under one
/// bench.changeset span: the engine's update (span q<n>.update), then
/// GrbState::apply_change_set and the query's maintenance functions on a
/// replay state, one span each. Lockstep puts the engine and its layers
/// under the same host conditions, so the top-k residual (update minus
/// layers) does not absorb drift between passes. `engine_pass` receives the
/// engine's answers and update times.
Counts replay_serial(Query q, const datagen::Dataset& ds, std::size_t n,
                     Pass& engine_pass) {
  const harness::ToolSpec& tool = tool_of(Kind::kSerial);
  const grb::ThreadGuard threads(tool.threads);
  harness::EnginePtr engine = harness::make_engine(tool, q);
  engine->load(ds.initial);
  engine_pass.answers.push_back(engine->initial());
  queries::GrbState st = queries::GrbState::from_graph(ds.initial);
  grb::Vector<U64> scores = batch_scores(q, st);
  Counts c;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t epoch = i + 1;
    const telemetry::SpanScope cs_span("bench.changeset", epoch, nullptr);
    {
      const telemetry::SpanScope span(
          q == Query::kQ1 ? "q1.update" : "q2.update", epoch, nullptr);
      const Clock::time_point t = Clock::now();
      engine_pass.answers.push_back(engine->update(ds.changes[i]));
      engine_pass.latency_ms.push_back(ms_since(t));
      engine_pass.gap_ms.push_back(engine_pass.latency_ms.back());
    }
    queries::GrbDelta delta;
    {
      const telemetry::SpanScope span(q == Query::kQ1 ? "q1.apply" : "q2.apply",
                                      epoch, nullptr);
      delta = st.apply_change_set(ds.changes[i]);
    }
    if (q == Query::kQ1) {
      q1_layers(st, delta, scores, epoch, c);
    } else {
      q2_layers(st, delta, scores, epoch, c);
    }
  }
  grb::recycle(std::move(scores));
  return c;
}

/// The pipelined engine's layers in serial-barrier form:
/// ShardedGrbState::route, apply_routed, then each shard's maintenance.
Counts replay_sharded(Query q, const datagen::Dataset& ds, std::size_t n) {
  const harness::ToolSpec& tool = tool_of(Kind::kPipelined);
  const grb::ThreadGuard threads(tool.threads);
  const auto shards = static_cast<std::size_t>(tool.shards);
  shard::ShardedGrbState st(shards);
  st.load(ds.initial);
  std::vector<grb::Vector<U64>> scores;
  for (std::size_t s = 0; s < shards; ++s) {
    scores.push_back(batch_scores(q, st.shard(s)));
  }
  Counts c;
  c.shard_ops.assign(shards, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t epoch = i + 1;
    const telemetry::SpanScope cs_span("bench.changeset", epoch, nullptr);
    shard::RoutedChangeSet routed;
    {
      const telemetry::SpanScope span("shard.route", epoch, nullptr);
      routed = st.route(ds.changes[i]);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      c.shard_ops[s] += routed.parts[s].size();
    }
    std::vector<queries::GrbDelta> deltas;
    {
      const telemetry::SpanScope span("shard.apply", epoch, nullptr);
      deltas = st.apply_routed(routed);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      if (q == Query::kQ1) {
        q1_layers(st.shard(s), deltas[s], scores[s], epoch, c);
      } else {
        q2_layers(st.shard(s), deltas[s], scores[s], epoch, c);
      }
    }
  }
  for (auto& v : scores) grb::recycle(std::move(v));
  return c;
}

/// Total span time (ms) by span name, over every recorded span.
std::map<std::string, double> span_totals_ms() {
  std::map<std::string, double> out;
  for (const telemetry::CompletedSpan& s :
       telemetry::Tracer::instance().collect()) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  }
  return out;
}

/// p99 over change sets of the per-epoch span times named `a` or `b`.
double per_epoch_p99_ms(const char* a, const char* b) {
  std::vector<double> v;
  for (const telemetry::CompletedSpan& s :
       telemetry::Tracer::instance().collect()) {
    if (s.name == a || s.name == b) {
      v.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return quantile(std::move(v), 0.99);
}

double per_cs(double total, std::size_t sets) {
  return sets == 0 ? 0.0 : total / static_cast<double>(sets);
}

void run_traced(const Options& opt, Kind kind, const StreamSpec& spec,
                Report& r) {
  const Clock::time_point g0 = Clock::now();
  const datagen::Dataset ds = make_dataset(spec, opt.seed);
  r.metric("datagen.generate_s", seconds_since(g0));
  r.metric("model.edges_end", static_cast<double>(edges_at_end(ds)));
  r.metric("queries.delta_ops_per_cs", ops_per_change_set(ds));
  const Oracle oracle = nmf_oracle(ds);
  r.metric("nmf.q1_update_ms", oracle.q1_update_ms);
  r.metric("nmf.q2_update_ms", oracle.q2_update_ms);

  // The replayed prefix: at least the warm-up's length, at most the stream.
  const std::size_t all = ds.changes.size();
  const std::size_t n = std::min(
      all, std::max(std::min(kWarmupSets, all),
                    static_cast<std::size_t>(std::lround(
                        static_cast<double>(all) * opt.seconds *
                        kTracedSharePerSecond))));

  // Per query: the warm-up, then an untraced reference pass over the
  // prefix. The registry delta over the reference passes gives the prune,
  // arena and epoch-phase counters.
  std::vector<Pass> q1{warmup_pass(kind, Query::kQ1, ds)};
  std::vector<Pass> q2{warmup_pass(kind, Query::kQ2, ds)};
  RegistryDelta d;
  d.before = telemetry::Registry::instance().snapshot();
  q1.push_back(run_pass(kind, Query::kQ1, ds, n));
  q2.push_back(run_pass(kind, Query::kQ2, ds, n));
  d.after = telemetry::Registry::instance().snapshot();
  report_registry_layers(d, r);

  telemetry::Tracer::instance().clear();
  telemetry::set_mode(telemetry::TelemetryMode::kTracing);
  Counts c1;
  Counts c2;
  if (kind == Kind::kSerial) {
    c1 = replay_serial(Query::kQ1, ds, n, q1.emplace_back());
    c2 = replay_serial(Query::kQ2, ds, n, q2.emplace_back());
  } else {
    // The pipelined engine overlaps change sets, so it cannot run in
    // lockstep with a serial replay: it runs its own traced pass (its
    // route/apply/merge spans), then the replay.
    q1.push_back(run_pass(kind, Query::kQ1, ds, n));
    q2.push_back(run_pass(kind, Query::kQ2, ds, n));
    c1 = replay_sharded(Query::kQ1, ds, n);
    c2 = replay_sharded(Query::kQ2, ds, n);
  }
  telemetry::set_mode(telemetry::TelemetryMode::kMetricsOnly);
  if (!telemetry::Tracer::instance().export_chrome_trace(opt.trace_path)) {
    r.failed_op("cannot write the trace to " + opt.trace_path);
  }
  r.metric("trace.overhead_frac", (sum(q1[2].gap_ms) + sum(q2[2].gap_ms)) /
                                      (sum(q1[1].gap_ms) + sum(q2[1].gap_ms)));
  check_passes(q1, oracle, Query::kQ1, r);
  check_passes(q2, oracle, Query::kQ2, r);

  const std::map<std::string, double> t = span_totals_ms();
  const auto total = [&](const char* name) {
    const auto it = t.find(name);
    return it == t.end() ? 0.0 : it->second;
  };
  r.metric("queries.q1_fold_ms", per_cs(total("q1.fold"), n));
  r.metric("queries.q2_affected_ms", per_cs(total("q2.affected"), n));
  r.metric("queries.q2_rescore_ms", per_cs(total("q2.rescore"), n));
  r.metric("queries.q2_fold_ms", per_cs(total("q2.fold"), n));
  r.metric("queries.q1_changed_per_cs",
           per_cs(static_cast<double>(c1.changed), n));
  r.metric("queries.q2_changed_per_cs",
           per_cs(static_cast<double>(c2.changed), n));
  r.metric("queries.q2_affected_per_cs",
           per_cs(static_cast<double>(c2.affected), n));
  r.metric("queries.q2_useful_ratio",
           c2.affected == 0 ? 0.0
                            : static_cast<double>(c2.changed) /
                                  static_cast<double>(c2.affected));
  r.metric("queries.q2_likers_per_rescore",
           c2.affected == 0 ? 0.0
                            : static_cast<double>(c2.likers) /
                                  static_cast<double>(c2.affected));

  if (kind == Kind::kSerial) {
    const double apply = total("q1.apply") + total("q2.apply");
    r.metric("queries.apply_ms", per_cs(apply, 2 * n));
    r.metric("queries.apply_p99_ms", per_epoch_p99_ms("q1.apply", "q2.apply"));
    // Top-k is private to the engine: it is what the engine's update takes
    // beyond the replayed layers, on the same change sets.
    const double q1_layers_ms = total("q1.apply") + total("q1.fold");
    const double q2_layers_ms = total("q2.apply") + total("q2.affected") +
                                total("q2.rescore") + total("q2.fold");
    r.metric("queries.q1_topk_ms",
             per_cs(total("q1.update") - q1_layers_ms, n));
    r.metric("queries.q2_topk_ms",
             per_cs(total("q2.update") - q2_layers_ms, n));
    r.metric("queries.attributed_share",
             (q1_layers_ms + q2_layers_ms) /
                 (total("q1.update") + total("q2.update")));
    return;
  }

  const std::size_t shards = c1.shard_ops.size();
  r.metric("shard.route_ms", per_cs(total("shard.route"), 2 * n));
  r.metric("shard.apply_ms", per_cs(total("shard.apply"), 2 * n));
  r.metric("shard.apply_skew", shard_apply_skew(d, shards));
  r.metric("shard.merge_ms", d.histogram("epoch.merge_us").mean() * 1e-3);
  std::uint64_t ops_max = 0;
  std::uint64_t ops_sum = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::uint64_t ops = c1.shard_ops[s] + c2.shard_ops[s];
    ops_max = std::max(ops_max, ops);
    ops_sum += ops;
  }
  r.metric("shard.ops_max_share",
           ops_sum == 0 ? 0.0
                        : static_cast<double>(ops_max) /
                              static_cast<double>(ops_sum));
}

}  // namespace

void run_ttc(const Options& opt, bool removals, Report& r) {
  const StreamSpec spec = stream_spec(opt, removals ? 0.25 : 0.0);
  if (opt.trace_path.empty()) {
    run_untraced(opt, Kind::kSerial, spec, r);
  } else {
    run_traced(opt, Kind::kSerial, spec, r);
  }
}

void run_sharded_stream(const Options& opt, Report& r) {
  const StreamSpec spec = stream_spec(opt, 0.0);
  if (opt.trace_path.empty()) {
    run_untraced(opt, Kind::kPipelined, spec, r);
  } else {
    run_traced(opt, Kind::kPipelined, spec, r);
  }
}

}  // namespace ttcb
