#include "daemon/epoch_store.hpp"

#include <stdexcept>
#include <utility>

#include "support/telemetry/trace.hpp"

namespace grbd {

EpochStore::EpochStore(std::size_t retain)
    : retain_(retain), root_(std::make_shared<const Table>()) {
  if (retain_ == 0) {
    throw std::invalid_argument("EpochStore retain must be >= 1");
  }
}

EpochStore::TablePtr EpochStore::load() const {
  const std::lock_guard<std::mutex> lock(root_mu_);
  return root_;
}

void EpochStore::publish(Snapshot snap) {
  GRB_TRACE_SPAN("publish", snap.epoch);
  const TablePtr old = load();
  if (!old->window.empty() &&
      snap.epoch != old->window.back()->epoch + 1) {
    throw std::logic_error("EpochStore::publish: epochs must be dense");
  }
  auto next = std::make_shared<Table>();
  next->window.reserve(retain_);
  const std::size_t keep =
      old->window.size() < retain_ ? old->window.size() : retain_ - 1;
  next->window.assign(old->window.end() - static_cast<std::ptrdiff_t>(keep),
                      old->window.end());
  next->window.push_back(std::make_shared<const Snapshot>(std::move(snap)));
  {
    // `old` still holds the previous root, so it is never freed under the
    // lock.
    const std::lock_guard<std::mutex> lock(root_mu_);
    root_ = std::move(next);
  }
  {
    // Empty critical section: pairs the store above with waiters' re-check
    // so no wait_published sleeper can miss the wake-up.
    std::lock_guard<std::mutex> lock(wait_mu_);
  }
  wait_cv_.notify_all();
}

SnapshotPtr EpochStore::latest() const {
  const TablePtr t = load();
  return t->window.empty() ? nullptr : t->window.back();
}

SnapshotPtr EpochStore::at(std::uint64_t epoch) const {
  const TablePtr t = load();
  if (t->window.empty()) return nullptr;
  const std::uint64_t first = t->window.front()->epoch;
  const std::uint64_t last = t->window.back()->epoch;
  if (epoch < first || epoch > last) return nullptr;
  return t->window[static_cast<std::size_t>(epoch - first)];
}

bool EpochStore::evicted(std::uint64_t epoch) const {
  const TablePtr t = load();
  return !t->window.empty() && epoch < t->window.front()->epoch;
}

bool EpochStore::latest_epoch(std::uint64_t& epoch) const {
  const SnapshotPtr s = latest();
  if (!s) return false;
  epoch = s->epoch;
  return true;
}

SnapshotPtr EpochStore::wait_published(std::uint64_t epoch,
                                       std::chrono::milliseconds timeout) {
  if (SnapshotPtr s = at(epoch)) return s;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::unique_lock<std::mutex> lock(wait_mu_);
  for (;;) {
    if (SnapshotPtr s = at(epoch)) return s;
    if (evicted(epoch)) return nullptr;
    if (wait_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return at(epoch);  // one last look after the deadline
    }
  }
}

std::size_t EpochStore::size() const {
  return load()->window.size();
}

}  // namespace grbd
