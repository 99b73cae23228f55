// Golden pins for FastSV on generated SF-1/SF-2 friendship graphs
// (deterministic datagen seed 42): component count, largest component and
// Σ size². Kernel rewrites — the parallel vector pipeline in particular —
// must reproduce these values exactly; a silent change in FastSV's output
// fails here even if its property-based tests still hold. The largest
// component is also cross-checked against cc_bfs, an independent
// implementation, so the pins are not FastSV checking itself.
//
// The pinned numbers were produced by this exact code path at the time the
// test was written.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "datagen/generator.hpp"
#include "lagraph/cc_bfs.hpp"
#include "lagraph/cc_fastsv.hpp"
#include "queries/grb_state.hpp"

namespace {

using grb::Index;
using U64 = std::uint64_t;

struct Golden {
  unsigned sf;
  U64 users, friend_nnz;
  U64 cc_components, cc_largest, cc_sumsq;
};

const Golden kGolden[] = {
    {1, 267, 558, 75, 186, 34693},
    {2, 434, 988, 119, 314, 98720},
};

U64 largest_component(const std::vector<Index>& labels) {
  U64 largest = 0;
  for (const Index s : lagraph::component_sizes(labels)) {
    largest = std::max<U64>(largest, s);
  }
  return largest;
}

class LagraphGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(LagraphGolden, PinsAlgorithmResults) {
  const Golden& g = GetParam();
  const auto data = datagen::generate(datagen::params_for_scale(g.sf));
  const auto state = queries::GrbState::from_graph(data.initial);
  const auto& friends = state.friends();
  ASSERT_EQ(friends.nrows(), g.users);
  ASSERT_EQ(friends.nvals(), g.friend_nnz);

  // Connected components via FastSV.
  const auto labels = lagraph::cc_fastsv(friends);
  EXPECT_EQ(lagraph::component_sizes(labels).size(), g.cc_components);
  EXPECT_EQ(largest_component(labels), g.cc_largest);
  EXPECT_EQ(lagraph::sum_squared_component_sizes(labels), g.cc_sumsq);
  // The BFS labelling must find the same giant component.
  EXPECT_EQ(largest_component(lagraph::cc_bfs(friends)), g.cc_largest);
}

INSTANTIATE_TEST_SUITE_P(ScaleFactors, LagraphGolden,
                         ::testing::ValuesIn(kGolden),
                         [](const auto& info) {
                           return "SF" + std::to_string(info.param.sf);
                         });

}  // namespace
