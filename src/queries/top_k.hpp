// Top-k answer maintenance with the contest's ordering: higher score first,
// ties broken by the more recent timestamp, then by the smaller id (for a
// deterministic total order). The incremental engines exploit that scores
// never decrease under insert-only updates: merging the previous top-k with
// the entities whose scores changed is sufficient to maintain the answer.
//
// Removal-bearing change sets break that monotonicity, and the re-rank they
// force used to be an unconditional full scan. The pruned layer below (the
// maxscore trick, adapted to incremental maintenance) kills those rescans:
//
//   BlockBounds    — per-block score *upper bounds* over the dense entity id
//                    space, maintained incrementally from each epoch's
//                    changed (idx, val) pairs. Raising values raise the
//                    bound eagerly; lowering values only mark the block
//                    stale (the bound stays a valid upper bound), and an
//                    exact rebuild happens lazily when a block's staleness
//                    crosses a budget.
//   CandidatePool  — a bounded per-shard pool of the strongest entities,
//                    kept value-exact across change sets (every score
//                    change flows through the per-epoch changed sets), so a
//                    re-rank can seed the top-k — and thus the pruning
//                    threshold — before touching any block.
//   block_can_beat — the skip test: a block is scanned only if a candidate
//                    with the block's bound, the best conceivable timestamp
//                    and the best conceivable id would still rank before
//                    the current kth entry. The tie fields are part of the
//                    test (a block whose bound *equals* the threshold score
//                    must be scanned — an entity there can still win on
//                    timestamp or id), which is what keeps the pruned
//                    answer byte-identical to the full scan.
//
// PrunedTopK (at the bottom) is the one place the per-epoch protocol over
// these pieces lives: seed bounds and pools from a full walk, fold each
// changed entity, then keep the insert-only merge or run the pool-seeded
// pruned re-rank, and count the epoch's PruneStats once. Every incremental
// engine — serial, sharded, pipelined — owns one and supplies only how it
// walks its values. The stats leave the process only through the "prune.*"
// registry counters, which PrunedTopK writes once per epoch (the one
// add_prune_counters caller). Readers — benches, tests, the daemon's
// kMetrics frame — diff two registry snapshots and decode the interval with
// prune_stats_of(after.delta_since(before)).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "model/social_graph.hpp"

namespace grbsm::telemetry {
struct RegistrySnapshot;
}

namespace queries {

using Index = std::uint64_t;

struct Ranked {
  sm::NodeId id = 0;
  std::uint64_t score = 0;
  sm::Timestamp timestamp = 0;

  friend bool operator==(const Ranked&, const Ranked&) = default;
};

/// True if a ranks strictly before b.
[[nodiscard]] bool ranks_before(const Ranked& a, const Ranked& b) noexcept;

class TopK {
 public:
  explicit TopK(std::size_t k = 3) : k_(k) {}

  /// Offers a candidate. If an entry with the same id exists it is replaced
  /// (scores are monotonically nondecreasing, so the new entry never ranks
  /// worse than the one it replaces).
  void offer(const Ranked& candidate);

  /// offer() behind the full-scan pre-filter: only candidates that can
  /// enter the current top-k are inserted, avoiding k² work on big scans.
  /// Sound only while entries are never replaced by worse ones — i.e. for
  /// building a fresh answer, not for maintaining one across updates.
  void offer_guarded(const Ranked& candidate) {
    if (entries_.size() < k_ || ranks_before(candidate, entries_.back())) {
      offer(candidate);
    }
  }

  /// Current entries, best first (at most k).
  [[nodiscard]] const std::vector<Ranked>& entries() const noexcept {
    return entries_;
  }

  /// True once k entries are held — the precondition for pruning (an
  /// unfilled top-k can never refuse a candidate).
  [[nodiscard]] bool full() const noexcept { return entries_.size() >= k_; }
  /// The kth (worst) entry — the pruning threshold. Only valid when
  /// !entries().empty().
  [[nodiscard]] const Ranked& worst() const noexcept {
    return entries_.back();
  }

  /// Contest answer string: ids of the best entries joined with '|'.
  [[nodiscard]] std::string answer() const;

  void clear() noexcept { entries_.clear(); }
  [[nodiscard]] std::size_t k() const noexcept { return k_; }

 private:
  std::size_t k_;
  std::vector<Ranked> entries_;  // sorted best-first, unique ids, ≤ k
};

/// Builds the answer from a full candidate scan (batch engines).
TopK top_k_of(std::size_t k, const std::vector<Ranked>& all);

// --- Threshold-pruned answer extraction --------------------------------------

/// Counters of the pruned re-rank path. blocks_total counts every block a
/// pruned scan *considered* (before the skip decision), so
/// blocks_scanned + blocks_skipped == blocks_total is an invariant the CI
/// smoke gates — a code path that forgets to count breaks the equation
/// instead of silently rotting.
struct PruneStats {
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t pool_hits = 0;      ///< candidates seeded from pools
  std::uint64_t pool_rebuilds = 0;  ///< full-scan pool (re)builds
  std::uint64_t bound_rebuilds = 0; ///< lazy exact bound recomputations

  friend bool operator==(const PruneStats&, const PruneStats&) = default;
};

/// The six prune.* counters of a registry snapshot — or of a
/// RegistrySnapshot::delta_since, to read one interval's activity.
[[nodiscard]] PruneStats prune_stats_of(
    const grbsm::telemetry::RegistrySnapshot& snap) noexcept;
/// PrunedTopK's writer: adds one epoch's stats to the prune.* registry
/// counters as one registry batch, so no snapshot sees scanned + skipped
/// != total.
void add_prune_counters(const PruneStats& delta) noexcept;

/// Dense ids per bound block. Small enough that pruning bites at the bench
/// scale factors, big enough that the bounds array stays negligible
/// (n / 256 u64s) and a scanned block amortises its skip test.
inline constexpr Index kPruneBlockWidth = 256;
/// Lowering events a block absorbs before its bound is recomputed exactly.
/// Removals between rebuilds leave the bound stale-high — still a valid
/// upper bound, so correctness never depends on this number; it only trades
/// rebuild work against skip precision.
inline constexpr std::uint32_t kStaleBudget = 16;
/// Candidate pool capacity (entities per shard). Must be >= the answer k;
/// the slack keeps the seed threshold strong while removals demote leaders.
inline constexpr std::size_t kPoolCapacity = 12;

/// The skip test, tie fields included: can a block with score upper bound
/// `bound` still place an entity into `top`? Compares the best conceivable
/// candidate (score = bound, newest possible timestamp, smallest possible
/// id) against the current kth entry under the full ranks_before order — so
/// bound == threshold score never skips, and byte-identity survives ties at
/// exactly the threshold.
[[nodiscard]] bool block_can_beat(const TopK& top,
                                  std::uint64_t bound) noexcept;

/// Per-block score upper bounds over one dense entity id space (one shard's
/// comments, or the merged post totals). Maintained by the thread that owns
/// the answer extraction — the engines' update path or the pipelined
/// publisher — never shared.
class BlockBounds {
 public:
  explicit BlockBounds(Index block_width = kPruneBlockWidth)
      : width_(block_width == 0 ? kPruneBlockWidth : block_width) {}

  /// Forgets everything and re-covers [0, n) with zero bounds. The caller
  /// re-raises from a full scan (initial evaluation).
  void reset(Index n);
  /// Grows the covered space to [0, n); existing bounds are kept, newborn
  /// blocks start at bound 0 (new entities are born with score 0 — their
  /// first nonzero score arrives as a changed pair and raises the bound).
  void resize(Index n);

  [[nodiscard]] Index num_entities() const noexcept { return n_; }
  [[nodiscard]] Index num_blocks() const noexcept {
    return static_cast<Index>(bounds_.size());
  }
  [[nodiscard]] Index block_width() const noexcept { return width_; }
  [[nodiscard]] Index block_of(Index i) const noexcept { return i / width_; }
  [[nodiscard]] Index block_lo(Index b) const noexcept { return b * width_; }
  [[nodiscard]] Index block_hi(Index b) const noexcept {
    const Index hi = block_lo(b) + width_;
    return hi < n_ ? hi : n_;
  }
  [[nodiscard]] std::uint64_t bound(Index b) const noexcept {
    return bounds_[b];
  }
  [[nodiscard]] std::uint32_t staleness(Index b) const noexcept {
    return stale_[b];
  }

  /// Raise-only fold (insert-only epochs, initial full scans): bound =
  /// max(bound, v). Never touches staleness.
  void raise(Index i, std::uint64_t v) noexcept {
    const Index b = block_of(i);
    if (v > bounds_[b]) bounds_[b] = v;
  }

  /// Folds one changed entry whose new value is `v`. When the change may
  /// have *lowered* the block maximum (a removal epoch), the block's
  /// staleness advances; crossing the budget triggers the lazy exact
  /// rebuild via `value_of(i) -> current score of entity i`. Stats get the
  /// rebuild count.
  template <typename ValueF>
  void note_change(Index i, std::uint64_t v, bool may_lower, ValueF&& value_of,
                   PruneStats& stats) {
    const Index b = block_of(i);
    if (v > bounds_[b]) bounds_[b] = v;
    if (!may_lower) return;
    if (++stale_[b] < kStaleBudget) return;
    rebuild_block(b, value_of);
    ++stats.bound_rebuilds;
  }

  /// Exact bound for one block: max of value_of over its entities. Resets
  /// the block's staleness.
  template <typename ValueF>
  void rebuild_block(Index b, ValueF&& value_of) {
    std::uint64_t m = 0;
    const Index hi = block_hi(b);
    for (Index i = block_lo(b); i < hi; ++i) {
      const std::uint64_t v = value_of(i);
      if (v > m) m = v;
    }
    bounds_[b] = m;
    stale_[b] = 0;
  }

 private:
  Index width_;
  Index n_ = 0;
  std::vector<std::uint64_t> bounds_;  // bounds_[b] >= max score in block b
  std::vector<std::uint32_t> stale_;   // lowerings since last exact bound
};

/// Bounded pool of the strongest candidates of one dense entity space,
/// maintained across change sets. Values are kept *exact*: every score
/// change of a pool member arrives as a changed (idx, val) pair and is
/// folded in with offer(), so seeding reads current values — which is what
/// lets a removal re-rank trust the seeded threshold. Membership quality
/// may decay (an untouched entity can outgrow a demoted member), but that
/// only weakens the seed, never the answer: correctness lives entirely in
/// the block-bound skip test.
class CandidatePool {
 public:
  explicit CandidatePool(std::size_t capacity = kPoolCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  struct Entry {
    Index idx = 0;  ///< dense entity id (pool-local key)
    Ranked r;
  };

  /// Insert-or-replace by dense id. A member's value is always replaced
  /// (it may drop — the pool mirrors current values); a non-member is
  /// admitted when the pool has room or it beats the current worst, which
  /// is evicted on overflow.
  void offer(Index idx, const Ranked& r);

  /// offer() behind the full-scan pre-filter: skips candidates that cannot
  /// enter a full pool. Sound only for rebuild scans, where each entity is
  /// offered exactly once (a member's lowered value would be missed).
  void offer_guarded(Index idx, const Ranked& r) {
    if (entries_.size() < capacity_ ||
        ranks_before(r, entries_.back().r)) {
      offer(idx, r);
    }
  }

  /// Seeds a fresh top-k with every pooled entry (best first), counting
  /// pool_hits.
  void seed(TopK& top, PruneStats& stats) const;

  void clear() noexcept { entries_.clear(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Sorted best-first.
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
    return entries_;
  }

 private:
  std::size_t capacity_;
  std::vector<Entry> entries_;  // sorted best-first, unique idx, ≤ capacity
};

/// The pruned block walk: considers every block of [0, num_blocks) in
/// order, skipping those whose upper bound provably cannot beat the running
/// kth-best threshold and scanning the rest. `bound_of(b)` returns the
/// block's score upper bound; `scan_block(b)` must offer every entity of
/// block b (with its *current* score) into `top`. Counters land in `stats`.
///
/// Byte-identity argument: a skipped block fails block_can_beat, i.e. the
/// top-k already holds k real entities that each rank before every possible
/// entity of that block under the full (score, timestamp, id) order — so no
/// member of the block is in the true top-k, and the surviving entries are
/// exactly the full scan's (TopK contents are offer-order-independent under
/// a strict total order).
template <typename BoundF, typename ScanF>
void pruned_blocks(TopK& top, Index num_blocks, BoundF&& bound_of,
                   ScanF&& scan_block, PruneStats& stats) {
  for (Index b = 0; b < num_blocks; ++b) {
    ++stats.blocks_total;
    if (!block_can_beat(top, bound_of(b))) {
      ++stats.blocks_skipped;
      continue;
    }
    ++stats.blocks_scanned;
    scan_block(b);
  }
}

// --- The maintainer ----------------------------------------------------------

/// The incremental engines' top-k, kept current across change sets with the
/// pruned layer above. It owns the answer, one BlockBounds + CandidatePool
/// per entity space (one space for a serial engine or for merged Q1 post
/// totals, one per shard for Q2 comments) and the running epoch's
/// PruneStats. An engine drives it in four steps:
///
///   rebuild(sizes, scan)   initial(): a full walk of every space raises
///                          exact bounds and fills the pools and the answer.
///   grow / note / note_newborn
///                          each epoch: cover newborn ids, then fold every
///                          changed entity (and every newborn) into its
///                          space's bounds and pool and merge it into the
///                          answer — the insert-only merge.
///   finish(removals, scan) an insert-only epoch keeps that merge; a
///                          removal epoch discards it for the pruned
///                          re-rank: every space's pool seeds the threshold
///                          before any block is walked.
///
/// rebuild and finish each add the epoch's stats to the registry once.
/// `scan(space, lo, hi, emit)` is the engine's value walk: it must call
/// emit(i, ranked) for every entity i of [lo, hi) in `space`, in increasing
/// i, with the entity's current score.
class PrunedTopK {
 public:
  explicit PrunedTopK(std::size_t k = 3) : top_(k) {}

  template <typename ScanF>
  void rebuild(const std::vector<Index>& sizes, ScanF&& scan) {
    top_.clear();
    spaces_.assign(sizes.size(), Space());
    stats_.pool_rebuilds = sizes.size();
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      Space& sp = spaces_[s];
      sp.bounds.reset(sizes[s]);
      scan(s, Index{0}, sizes[s], [&](Index i, const Ranked& r) {
        sp.bounds.raise(i, r.score);
        top_.offer_guarded(r);
        sp.pool.offer_guarded(i, r);
      });
    }
    publish();
  }

  /// Covers [0, n) of `space`; ids past the old size start in zero-bound
  /// blocks (newborns score 0 until a changed pair raises them).
  void grow(std::size_t space, Index n) { spaces_[space].bounds.resize(n); }

  /// Folds one changed entity: its block bound (`may_lower` ages the block,
  /// `value_of(i)` recomputes it once stale), its pool entry and the
  /// insert-only merge.
  template <typename ValueF>
  void note(std::size_t space, Index i, const Ranked& r, bool may_lower,
            ValueF&& value_of) {
    Space& sp = spaces_[space];
    sp.bounds.note_change(i, r.score, may_lower, value_of, stats_);
    sp.pool.offer(i, r);
    top_.offer(r);
  }

  /// A newborn entity with no changed pair: it can still rank by recency.
  void note_newborn(std::size_t space, Index i, const Ranked& r) {
    spaces_[space].pool.offer(i, r);
    top_.offer(r);
  }

  template <typename ScanF>
  void finish(bool removals, ScanF&& scan) {
    if (removals) rerank(scan);
    publish();
  }

  [[nodiscard]] std::string answer() const { return top_.answer(); }

 private:
  struct Space {
    BlockBounds bounds;
    CandidatePool pool;
  };

  template <typename ScanF>
  void rerank(ScanF& scan) {
    TopK top(top_.k());
    for (const Space& sp : spaces_) sp.pool.seed(top, stats_);
    for (std::size_t s = 0; s < spaces_.size(); ++s) {
      Space& sp = spaces_[s];
      pruned_blocks(
          top, sp.bounds.num_blocks(),
          [&](Index b) { return sp.bounds.bound(b); },
          [&](Index b) {
            scan(s, sp.bounds.block_lo(b), sp.bounds.block_hi(b),
                 [&](Index i, const Ranked& r) {
                   top.offer_guarded(r);
                   sp.pool.offer_guarded(i, r);  // harvest survivors
                 });
          },
          stats_);
    }
    top_ = std::move(top);
  }

  /// Adds the epoch's stats to the registry and starts the next epoch.
  void publish() noexcept {
    add_prune_counters(stats_);
    stats_ = PruneStats{};
  }

  TopK top_;
  std::vector<Space> spaces_;
  PruneStats stats_;
};

}  // namespace queries
