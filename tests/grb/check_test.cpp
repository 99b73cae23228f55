// Death/negative tests for the debug concurrency-correctness layer
// (grb/detail/check.hpp): chunk-grid write overlap and apply-path
// reentrancy — plus functional coverage of the parallel_tasks fan-out
// driver the shard layer runs on.
//
// In Release builds (NDEBUG) the checks are compiled out by design; the
// death tests skip themselves and the misuse paths are instead exercised
// for "must not crash" behaviour, which pins the compiled-out contract.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "grb/context.hpp"
#include "grb/detail/check.hpp"
#include "grb/detail/parallel.hpp"
#include "model/change.hpp"
#include "queries/grb_state.hpp"
#include "shard/sharded_state.hpp"

namespace {

class CheckDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Death tests fork; "threadsafe" re-execs the binary so the child does
    // not inherit this process's OpenMP pool mid-flight.
    GTEST_FLAG_SET(death_test_style, "threadsafe");
  }
};

TEST_F(CheckDeathTest, OverlappingChunkClaimsDie) {
#if GRB_CHECKS_ENABLED
  EXPECT_DEATH(
      {
        grb::detail::OverlapChecker grid("test-grid");
        auto a = grid.claim(0, 10);
        auto b = grid.claim(5, 15);
        (void)a;
        (void)b;
      },
      "overlapping chunk-grid writes");
#else
  GTEST_SKIP() << "overlap checks compile out in Release";
#endif
}

TEST_F(CheckDeathTest, ReentrantScopeDies) {
#if GRB_CHECKS_ENABLED
  EXPECT_DEATH(
      {
        grb::detail::ReentrancyGuard guard;
        grb::detail::ReentrancyScope outer(guard, "test-entry");
        grb::detail::ReentrancyScope inner(guard, "test-entry");
      },
      "reentrant/concurrent entry");
#else
  GTEST_SKIP() << "reentrancy checks compile out in Release";
#endif
}

TEST(CheckTest, DisjointClaimsAndReuseAfterReleasePass) {
  grb::detail::OverlapChecker grid("test-grid");
  {
    [[maybe_unused]] auto a = grid.claim(0, 10);
    [[maybe_unused]] auto b = grid.claim(10, 20);
    [[maybe_unused]] auto c = grid.claim(30, 40);
  }
  // Ranges freed by scope exit are claimable again.
  [[maybe_unused]] auto d = grid.claim(0, 40);
  SUCCEED();
}

TEST(CheckTest, ApplyEpochCountsCompletedApplies) {
  queries::GrbState state;
  const sm::ChangeSet empty;
  auto d1 = state.apply_change_set(empty);
  auto d2 = state.apply_change_set(empty);
  (void)d1;
  (void)d2;
#if GRB_CHECKS_ENABLED
  EXPECT_EQ(state.apply_epoch(), 2u);
#else
  EXPECT_EQ(state.apply_epoch(), 0u);  // compiled out
#endif
}

TEST(ParallelTasksTest, RunsEveryTaskExactlyOnce) {
  const grb::ThreadGuard pin(4);
  constexpr grb::Index kTasks = 64;
  std::vector<int> ran(kTasks, 0);
  grb::detail::parallel_tasks(kTasks,
                              [&](grb::Index i) { ran[i] += 1; });
  for (grb::Index i = 0; i < kTasks; ++i) EXPECT_EQ(ran[i], 1) << i;
}

TEST(ParallelTasksTest, CollectsAndRethrowsFirstException) {
  const grb::ThreadGuard pin(4);
  std::atomic<int> survivors{0};
  EXPECT_THROW(
      grb::detail::parallel_tasks(16,
                                  [&](grb::Index i) {
                                    if (i == 7) {
                                      throw std::runtime_error("task 7 boom");
                                    }
                                    survivors.fetch_add(1);
                                  }),
      std::runtime_error);
  // The join completed: every non-throwing task still ran.
  EXPECT_EQ(survivors.load(), 15);
}

TEST(ParallelTasksTest, SerialFallbackPropagatesExceptions) {
  const grb::ThreadGuard pin(1);
  EXPECT_THROW(grb::detail::parallel_tasks(
                   4,
                   [](grb::Index i) {
                     if (i == 2) throw std::runtime_error("serial boom");
                   }),
               std::runtime_error);
}

}  // namespace
