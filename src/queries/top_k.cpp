#include "queries/top_k.hpp"

#include <algorithm>

#include "support/telemetry/metrics.hpp"

namespace queries {

namespace telemetry = grbsm::telemetry;

bool ranks_before(const Ranked& a, const Ranked& b) noexcept {
  if (a.score != b.score) return a.score > b.score;
  if (a.timestamp != b.timestamp) return a.timestamp > b.timestamp;
  return a.id < b.id;
}

void TopK::offer(const Ranked& candidate) {
  // Remove a stale entry for the same id, if any.
  const auto same_id = std::find_if(
      entries_.begin(), entries_.end(),
      [&](const Ranked& e) { return e.id == candidate.id; });
  if (same_id != entries_.end()) {
    entries_.erase(same_id);
  }
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), candidate,
      [](const Ranked& a, const Ranked& b) { return ranks_before(a, b); });
  entries_.insert(pos, candidate);
  if (entries_.size() > k_) {
    entries_.resize(k_);
  }
}

std::string TopK::answer() const {
  std::string out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i != 0) out.push_back('|');
    out += std::to_string(entries_[i].id);
  }
  return out;
}

TopK top_k_of(std::size_t k, const std::vector<Ranked>& all) {
  TopK t(k);
  for (const Ranked& r : all) {
    t.offer_guarded(r);
  }
  return t;
}

// --- Threshold-pruned answer extraction --------------------------------------

bool block_can_beat(const TopK& top, std::uint64_t bound) noexcept {
  if (!top.full()) return true;
  // Best conceivable entity of the block: the bound as its score, the
  // newest possible timestamp, the smallest possible id. If even that
  // candidate ranks at or after the kth entry, nothing in the block can
  // enter the answer.
  const Ranked best_conceivable{
      /*id=*/0, /*score=*/bound,
      /*timestamp=*/std::numeric_limits<sm::Timestamp>::max()};
  return ranks_before(best_conceivable, top.worst());
}

void BlockBounds::reset(Index n) {
  n_ = n;
  const Index blocks = n == 0 ? 0 : (n + width_ - 1) / width_;
  bounds_.assign(blocks, 0);
  stale_.assign(blocks, 0);
}

void BlockBounds::resize(Index n) {
  if (n <= n_) return;
  n_ = n;
  const Index blocks = (n + width_ - 1) / width_;
  if (blocks > bounds_.size()) {
    bounds_.resize(blocks, 0);
    stale_.resize(blocks, 0);
  }
}

void CandidatePool::offer(Index idx, const Ranked& r) {
  const auto same = std::find_if(entries_.begin(), entries_.end(),
                                 [&](const Entry& e) { return e.idx == idx; });
  if (same != entries_.end()) {
    entries_.erase(same);
  } else if (entries_.size() >= capacity_) {
    if (!ranks_before(r, entries_.back().r)) return;
    entries_.pop_back();
  }
  const auto pos = std::lower_bound(
      entries_.begin(), entries_.end(), r,
      [](const Entry& e, const Ranked& c) { return ranks_before(e.r, c); });
  entries_.insert(pos, Entry{idx, r});
}

void CandidatePool::seed(TopK& top, PruneStats& stats) const {
  for (const Entry& e : entries_) {
    top.offer(e.r);
    ++stats.pool_hits;
  }
}

// --- The prune.* registry counters ------------------------------------------
//
// The six counters live under stable "prune.*" dotted names, and every
// multi-counter update runs as a registry batch — a snapshot can never
// observe scanned + skipped != total, which the daemon tests assert on the
// wire.

namespace {

struct PruneMetrics {
  telemetry::Counter& blocks_total;
  telemetry::Counter& blocks_scanned;
  telemetry::Counter& blocks_skipped;
  telemetry::Counter& pool_hits;
  telemetry::Counter& pool_rebuilds;
  telemetry::Counter& bound_rebuilds;

  static PruneMetrics& get() {
    static PruneMetrics m{
        telemetry::Registry::instance().counter("prune.blocks_total"),
        telemetry::Registry::instance().counter("prune.blocks_scanned"),
        telemetry::Registry::instance().counter("prune.blocks_skipped"),
        telemetry::Registry::instance().counter("prune.pool_hits"),
        telemetry::Registry::instance().counter("prune.pool_rebuilds"),
        telemetry::Registry::instance().counter("prune.bound_rebuilds")};
    return m;
  }
};

}  // namespace

PruneStats prune_stats_of(const telemetry::RegistrySnapshot& snap) noexcept {
  PruneStats s;
  s.blocks_total = snap.value_or("prune.blocks_total", 0);
  s.blocks_scanned = snap.value_or("prune.blocks_scanned", 0);
  s.blocks_skipped = snap.value_or("prune.blocks_skipped", 0);
  s.pool_hits = snap.value_or("prune.pool_hits", 0);
  s.pool_rebuilds = snap.value_or("prune.pool_rebuilds", 0);
  s.bound_rebuilds = snap.value_or("prune.bound_rebuilds", 0);
  return s;
}

void add_prune_counters(const PruneStats& delta) noexcept {
  PruneMetrics& m = PruneMetrics::get();
  const telemetry::Registry::BatchScope batch;
  m.blocks_total.add(delta.blocks_total);
  m.blocks_scanned.add(delta.blocks_scanned);
  m.blocks_skipped.add(delta.blocks_skipped);
  m.pool_hits.add(delta.pool_hits);
  m.pool_rebuilds.add(delta.pool_rebuilds);
  m.bound_rebuilds.add(delta.bound_rebuilds);
}

}  // namespace queries
