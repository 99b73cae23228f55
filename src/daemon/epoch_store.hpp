// EpochStore: the daemon's reader/writer hand-off. The single writer thread
// publishes one immutable Snapshot per epoch (both query answers, already
// rendered); N reader threads pin a snapshot by copying one shared_ptr and
// serve answers from it without ever waiting out a merge on the apply path.
//
// RCU shape: the store holds a `std::shared_ptr<const Table>` where a Table
// is an immutable window of the last `retain` snapshots. publish() builds a
// fresh Table (copy of the shared_ptr window + the new snapshot) and swaps
// the root pointer; readers that copied the old root keep a consistent view
// alive for as long as they hold it — eviction only drops the *store's*
// reference, never a pinned reader's.
//
// Progress guarantees, honestly: the root pointer is guarded by a mutex
// (root_mu_), so a pin is lock-*light*, not lock-free — a reader can
// briefly contend with publish() on it. What the design does guarantee is
// that readers never wait for a merge to finish and never hold anything
// while serving an answer; the critical sections are a pointer copy plus a
// refcount bump, or a pointer swap. The second mutex+condvar pair exists
// solely for wait_published (readers that pinned a future epoch and chose
// to wait for it); lock order is wait_mu_ before root_mu_.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace grbd {

/// One published epoch: both answers, immutable once constructed.
struct Snapshot {
  std::uint64_t epoch = 0;
  std::string q1;
  std::string q2;
};
using SnapshotPtr = std::shared_ptr<const Snapshot>;

class EpochStore {
 public:
  /// Retains the newest `retain` epochs (>= 1) for pinned readers.
  explicit EpochStore(std::size_t retain);

  /// Writer side: publishes `snap` as the newest epoch and wakes waiters.
  /// Epochs must be published in strictly increasing order (the writer is
  /// single-threaded; this is checked).
  void publish(Snapshot snap);

  /// Reader side — each is one locked pointer copy (lock-light, not
  /// wait-free: see the progress-guarantees note above); none ever waits
  /// on the writer.
  /// Newest snapshot, or nullptr before the first publish.
  [[nodiscard]] SnapshotPtr latest() const;
  /// The snapshot pinned at `epoch`: nullptr when `epoch` is not (or no
  /// longer / not yet) in the window; `evicted` tells the two cases apart.
  [[nodiscard]] SnapshotPtr at(std::uint64_t epoch) const;
  [[nodiscard]] bool evicted(std::uint64_t epoch) const;
  /// Newest published epoch; UINT64_MAX-free: returns false before the
  /// first publish.
  [[nodiscard]] bool latest_epoch(std::uint64_t& epoch) const;

  /// Blocks until `epoch` publishes (returns its snapshot), it is evicted
  /// or the deadline passes (returns nullptr). Readers use this to pin
  /// "the epoch my write just created" before the writer merged it.
  [[nodiscard]] SnapshotPtr wait_published(std::uint64_t epoch,
                                           std::chrono::milliseconds timeout);

  [[nodiscard]] std::size_t retain() const noexcept { return retain_; }
  /// Snapshots currently in the window.
  [[nodiscard]] std::size_t size() const;

 private:
  /// Immutable window of consecutive snapshots, newest last.
  struct Table {
    std::vector<SnapshotPtr> window;
  };
  using TablePtr = std::shared_ptr<const Table>;

  /// Copies the root pointer under root_mu_.
  [[nodiscard]] TablePtr load() const;

  std::size_t retain_;
  mutable std::mutex root_mu_;  ///< guards root_ (copy or swap only)
  TablePtr root_;
  /// wait_published only — the read path never touches these.
  mutable std::mutex wait_mu_;
  std::condition_variable wait_cv_;
};

}  // namespace grbd
