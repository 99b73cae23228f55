// Cross-engine equivalence: all five engines (GraphBLAS batch, incremental,
// incremental+CC; NMF batch, incremental) must produce identical answer
// sequences on generated workloads — the strongest end-to-end property the
// repository has. This is what makes the Fig. 5 runtime comparison a fair
// one: every tool computes the same thing.
#include <gtest/gtest.h>

#include <cstdint>

#include "datagen/generator.hpp"
#include "harness/runner.hpp"

namespace {

using harness::Query;

// GoogleTest names each case by a byte dump of its parameter. The explicit
// zeroed `pad` fills what would otherwise be uninitialised padding between
// `scale` and `seed`, so the case names are the same on every build and run.
struct EquivCase {
  EquivCase(unsigned s, std::uint64_t sd) : scale(s), seed(sd) {}
  unsigned scale;
  unsigned pad = 0;
  std::uint64_t seed;
};
static_assert(sizeof(EquivCase) ==
                  sizeof(unsigned) * 2 + sizeof(std::uint64_t),
              "EquivCase must have no padding bytes");

class EngineEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(EngineEquivalence, AllEnginesAgreeOnQ1) {
  const auto p = GetParam();
  const auto ds =
      datagen::generate(datagen::params_for_scale(p.scale, p.seed));
  EXPECT_NO_THROW(harness::verify_tools(harness::all_tools(), Query::kQ1,
                                        ds.initial, ds.changes));
}

TEST_P(EngineEquivalence, AllEnginesAgreeOnQ2) {
  const auto p = GetParam();
  const auto ds =
      datagen::generate(datagen::params_for_scale(p.scale, p.seed));
  EXPECT_NO_THROW(harness::verify_tools(harness::all_tools(), Query::kQ2,
                                        ds.initial, ds.changes));
}

INSTANTIATE_TEST_SUITE_P(GeneratedStreams, EngineEquivalence,
                         ::testing::Values(EquivCase{1, 42},
                                           EquivCase{1, 1337},
                                           EquivCase{2, 42},
                                           EquivCase{2, 7},
                                           EquivCase{4, 42}));

TEST(EngineEquivalence, LongStreamSoak) {
  // 40 small change sets with removals mixed in: incremental state must not
  // drift from batch ground truth over a long stream.
  auto params = datagen::params_for_scale(2, 2024);
  params.change_sets = 40;
  params.insert_elements = 400;
  params.frac_removals = 0.2;
  const auto ds = datagen::generate(params);
  ASSERT_GE(ds.changes.size(), 30u);
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    EXPECT_NO_THROW(harness::verify_tools(harness::all_tools(), q,
                                          ds.initial, ds.changes));
  }
}

TEST(EngineEquivalence, EightThreadVariantsAgreeToo) {
  const auto ds = datagen::generate(datagen::params_for_scale(2, 99));
  for (const Query q : {Query::kQ1, Query::kQ2}) {
    EXPECT_NO_THROW(
        harness::verify_tools(harness::fig5_tools(), q, ds.initial,
                              ds.changes));
  }
}

TEST(EngineEquivalence, AnswersChangeOverTheStream) {
  // Sanity: the workloads actually move the answer somewhere; otherwise the
  // equivalence above would be vacuous. Any single (seed, query) pair may
  // legitimately keep a stable top-3 (updates are small), so we scan a few.
  bool moved = false;
  for (const std::uint64_t seed : {42ULL, 7ULL, 1337ULL}) {
    for (const Query q : {Query::kQ1, Query::kQ2}) {
      const auto ds = datagen::generate(datagen::params_for_scale(2, seed));
      const auto answers = harness::verify_tools(
          {harness::find_tool("grb-incremental")}, q, ds.initial, ds.changes);
      for (std::size_t i = 1; i < answers.size(); ++i) {
        if (answers[i] != answers[i - 1]) moved = true;
      }
    }
  }
  EXPECT_TRUE(moved) << "top-3 never changed across any update stream";
}

}  // namespace
