// Unit tests for the EpochPipeline hand-off primitive (grb/detail/
// pipeline.hpp): per-worker epoch ordering, window enforcement, the
// publication barrier, exception propagation and drain-on-destruction —
// plus the ThreadSanitizer regression pair for the producer→worker slot
// hand-off. The suite name carries "Pipeline" so the tsan CI lane's
// oversubscribed re-run (-R 'parallel|shard|Pipeline') picks it
// up.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "grb/detail/check.hpp"
#include "grb/detail/pipeline.hpp"
#include "grb/types.hpp"

namespace {

using grb::detail::EpochPipeline;

TEST(PipelinePrimitive, EveryWorkerSeesEveryEpochInOrder) {
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kDepth = 4;
  constexpr std::uint64_t kEpochs = 25;
  std::vector<std::vector<std::uint64_t>> seen(kWorkers);
  std::mutex mu;
  EpochPipeline pipe(kWorkers, kDepth,
                     [&](std::size_t w, std::uint64_t e) {
                       const std::lock_guard<std::mutex> lock(mu);
                       seen[w].push_back(e);
                     });
  std::uint64_t oldest = 0;
  for (std::uint64_t e = 0; e < kEpochs; ++e) {
    if (pipe.in_flight() >= kDepth) {
      pipe.wait_retired(oldest);
      pipe.release(oldest++);
    }
    ASSERT_EQ(pipe.reserve(), e);
    pipe.publish(e);
  }
  pipe.wait_retired(kEpochs - 1);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    ASSERT_EQ(seen[w].size(), kEpochs) << "worker " << w;
    for (std::uint64_t e = 0; e < kEpochs; ++e) {
      EXPECT_EQ(seen[w][e], e) << "worker " << w;
    }
    EXPECT_EQ(pipe.retired_by(w), kEpochs);
  }
  EXPECT_EQ(pipe.min_retired(), kEpochs);
}

TEST(PipelinePrimitive, FullWindowThrowsInsteadOfBlocking) {
  // The producer is also the drain thread; a blocking reserve() would
  // deadlock, so a full window is a hard error. Workers retiring epochs
  // does NOT free the window — only release() does.
  EpochPipeline pipe(1, 2, [](std::size_t, std::uint64_t) {});
  pipe.publish(pipe.reserve());
  pipe.publish(pipe.reserve());
  pipe.wait_retired(1);  // both retired, neither released
  EXPECT_THROW((void)pipe.reserve(), grb::InvalidValue);
  pipe.release(0);
  EXPECT_EQ(pipe.reserve(), 2u);
  EXPECT_EQ(pipe.in_flight(), 2u);
}

TEST(PipelinePrimitive, PublishOutOfOrderThrows) {
  EpochPipeline pipe(1, 4, [](std::size_t, std::uint64_t) {});
  const std::uint64_t e0 = pipe.reserve();
  const std::uint64_t e1 = pipe.reserve();
  EXPECT_THROW(pipe.publish(e1), grb::InvalidValue);
  pipe.publish(e0);
  pipe.publish(e1);
  pipe.wait_retired(e1);
}

TEST(PipelinePrimitive, WaitOnUnpublishedEpochThrows) {
  EpochPipeline pipe(2, 2, [](std::size_t, std::uint64_t) {});
  EXPECT_THROW(pipe.wait_retired(0), grb::InvalidValue);
}

TEST(PipelinePrimitive, StageExceptionPoisonsThePipeline) {
  std::atomic<int> ran{0};
  EpochPipeline pipe(2, 4, [&](std::size_t w, std::uint64_t e) {
    if (w == 1 && e == 1) throw std::runtime_error("stage boom");
    ran.fetch_add(1);
  });
  // Epoch 0 completes cleanly before the failing epoch is even published
  // (a failure anywhere poisons *every* later wait, so sequence them).
  pipe.publish(pipe.reserve());
  EXPECT_NO_THROW(pipe.wait_retired(0));
  pipe.publish(pipe.reserve());  // worker 1 throws on this epoch
  EXPECT_THROW(pipe.wait_retired(1), std::runtime_error);
  // Poisoned for good: both the barrier and the producer side rethrow.
  EXPECT_THROW(pipe.wait_retired(0), std::runtime_error);
  pipe.release(0);
  pipe.release(1);
  EXPECT_THROW((void)pipe.reserve(), std::runtime_error);
}

TEST(PipelinePrimitive, DestructorDrainsPublishedEpochs) {
  std::atomic<std::uint64_t> processed{0};
  {
    EpochPipeline pipe(2, 8,
                       [&](std::size_t, std::uint64_t) { ++processed; });
    for (std::uint64_t e = 0; e < 5; ++e) pipe.publish(pipe.reserve());
    // No waits: the destructor must finish all 5×2 stage runs itself.
  }
  EXPECT_EQ(processed.load(), 10u);
}

TEST(PipelinePrimitive, RejectsDegenerateConfigurations) {
  const auto noop = [](std::size_t, std::uint64_t) {};
  EXPECT_THROW(EpochPipeline(0, 1, noop), grb::InvalidValue);
  EXPECT_THROW(EpochPipeline(1, 0, noop), grb::InvalidValue);
  EXPECT_THROW(EpochPipeline(1, 1, nullptr), grb::InvalidValue);
}

// --- TSan regression pair ---------------------------------------------------
//
// The hand-off contract is reserve() → write the epoch's slot → publish().
// std::mutex/condition_variable are native happens-before edges for
// ThreadSanitizer (unlike libgomp's futex barriers, which parallel.hpp must
// re-annotate), so TSan watches this hand-off with no help: the green test
// pins that the correctly-ordered protocol is clean, and the death test
// seeds the one bug the barrier exists to prevent — publishing an epoch
// before its slot write — and requires TSan to flag it. The two accesses
// are unordered: the worker synchronised only on the publish edge, which
// precedes the slot write, and the producer touches no shared lock until
// the worker has read the slot (it waits on a relaxed flag, which TSan
// does not treat as synchronisation). So the race is reported on every
// schedule, not only when the worker happens to wake before the write.

TEST(PipelineTsanRegression, OrderedHandOffIsClean) {
  std::vector<std::uint64_t> slots(4, 0);
  std::atomic<std::uint64_t> sum{0};
  EpochPipeline pipe(2, 4, [&](std::size_t, std::uint64_t e) {
    sum.fetch_add(slots[e % 4]);
  });
  for (std::uint64_t e = 0; e < 8; ++e) {
    if (pipe.in_flight() >= 4) {
      pipe.wait_retired(e - 4);
      pipe.release(e - 4);
    }
    const std::uint64_t r = pipe.reserve();
    slots[r % 4] = r + 1;  // slot write strictly before publish
    pipe.publish(r);
  }
  pipe.wait_retired(7);
  EXPECT_EQ(sum.load(), 2 * (8 * 9) / 2);
}

#if GRB_TSAN_ENABLED
TEST(PipelineTsanRegression, MisorderedPublicationDies) {
  // Publish-before-write: the worker may read the slot with no
  // happens-before edge to the producer's late write. TSan must abort the
  // child (halt_on_error guarantees death even where the default would
  // only log), and the report must be a data race on the hand-off.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  std::string opts = "halt_on_error=1";
  if (const char* cur = std::getenv("TSAN_OPTIONS")) {
    opts = std::string(cur) + ":halt_on_error=1";
  }
  ::setenv("TSAN_OPTIONS", opts.c_str(), 1);
  EXPECT_DEATH(
      {
        std::vector<std::uint64_t> slots(2, 0);
        std::atomic<std::uint64_t> sum{0};
        std::atomic<bool> read{false};
        EpochPipeline pipe(1, 2, [&](std::size_t, std::uint64_t e) {
          sum.fetch_add(slots[e % 2]);
          read.store(true, std::memory_order_relaxed);
        });
        const std::uint64_t e = pipe.reserve();
        pipe.publish(e);  // BUG: epoch visible before its slot is written
        slots[e % 2] = 42;
        // Without this wait, wait_retired's lock could order the write
        // before a late-waking worker's read and hide the race.
        while (!read.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
        pipe.wait_retired(e);
      },
      "ThreadSanitizer: data race");
}
#else
TEST(PipelineTsanRegression, MisorderedPublicationDies) {
  GTEST_SKIP() << "requires GRB_SANITIZE=thread (TSan) build";
}
#endif

}  // namespace
