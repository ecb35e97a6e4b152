// Load-balancing strategy tests: correctness properties every strategy
// must satisfy, plus strategy-specific behaviour (greedy balance quality,
// refine's migration frugality, rotate's exactness).

#include <gtest/gtest.h>

#include "lb/strategy.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace apv;

namespace {

lb::LbStats skewed_stats(int ranks, int pes, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  lb::LbStats s;
  s.num_pes = pes;
  for (int r = 0; r < ranks; ++r) {
    // Heavy-tailed loads: a few expensive ranks, many cheap ones.
    const double load =
        rng.next_below(8) == 0 ? rng.next_range(5.0, 10.0)
                               : rng.next_range(0.05, 0.5);
    s.rank_load.push_back(load);
    s.rank_pe.push_back(static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(pes))));
  }
  return s;
}

}  // namespace

class StrategyProperties
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {
};

TEST_P(StrategyProperties, AssignmentIsValidAndDeterministic) {
  const auto [name, seed] = GetParam();
  const lb::LbStats stats = skewed_stats(48, 6, seed);
  auto strategy = lb::make_strategy(name);
  const lb::Assignment a = strategy->assign(stats);
  const lb::Assignment b = strategy->assign(stats);
  ASSERT_EQ(a.size(), stats.rank_load.size());
  EXPECT_EQ(a, b) << "strategy must be deterministic";
  for (int pe : a) {
    EXPECT_GE(pe, 0);
    EXPECT_LT(pe, stats.num_pes);
  }
}

TEST_P(StrategyProperties, BalancersNeverWorsenImbalanceMuch) {
  const auto [name, seed] = GetParam();
  const std::string n = name;
  if (n == "rotate" || n == "rand") GTEST_SKIP() << "not a balancer";
  const lb::LbStats stats = skewed_stats(48, 6, seed);
  const double before = lb::assignment_imbalance(
      stats, lb::Assignment(stats.rank_pe.begin(), stats.rank_pe.end()));
  const double after =
      lb::assignment_imbalance(stats, lb::make_strategy(name)->assign(stats));
  EXPECT_LE(after, before + 1e-9) << name;
}

INSTANTIATE_TEST_SUITE_P(
    All, StrategyProperties,
    ::testing::Combine(::testing::Values("greedy", "greedyrefine", "rotate",
                                         "rand", "none"),
                       ::testing::Values(1u, 7u, 99u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(GreedyLb, NearOptimalOnSkewedLoads) {
  for (std::uint64_t seed : {3u, 17u, 2025u}) {
    const lb::LbStats stats = skewed_stats(64, 8, seed);
    const double after = lb::assignment_imbalance(
        stats, lb::GreedyLb().assign(stats));
    EXPECT_LT(after, 1.35) << "seed " << seed;
  }
}

TEST(GreedyRefineLb, GoodBalanceWithFewMigrations) {
  for (std::uint64_t seed : {3u, 17u, 2025u}) {
    const lb::LbStats stats = skewed_stats(64, 8, seed);
    const lb::Assignment greedy = lb::GreedyLb().assign(stats);
    const lb::Assignment refine = lb::GreedyRefineLb().assign(stats);
    EXPECT_LE(lb::moved_ranks(stats, refine),
              lb::moved_ranks(stats, greedy))
        << "seed " << seed;
    EXPECT_LT(lb::assignment_imbalance(stats, refine), 1.6) << seed;
  }
}

TEST(GreedyRefineLb, AlreadyBalancedMeansNoMigrations) {
  lb::LbStats stats;
  stats.num_pes = 4;
  for (int r = 0; r < 16; ++r) {
    stats.rank_load.push_back(1.0);
    stats.rank_pe.push_back(r % 4);
  }
  EXPECT_EQ(lb::moved_ranks(stats, lb::GreedyRefineLb().assign(stats)), 0);
}

TEST(RotateLb, MovesEveryRankByExactlyOnePe) {
  const lb::LbStats stats = skewed_stats(20, 5, 11);
  const lb::Assignment out = lb::RotateLb().assign(stats);
  for (int r = 0; r < stats.num_ranks(); ++r) {
    EXPECT_EQ(out[static_cast<std::size_t>(r)],
              (stats.rank_pe[static_cast<std::size_t>(r)] + 1) % 5);
  }
}

TEST(NullLb, IdentityPlacement) {
  const lb::LbStats stats = skewed_stats(20, 5, 11);
  const lb::Assignment out = lb::NullLb().assign(stats);
  EXPECT_EQ(out, lb::Assignment(stats.rank_pe.begin(), stats.rank_pe.end()));
}

TEST(StrategyFactory, UnknownNameThrows) {
  EXPECT_THROW(lb::make_strategy("quantumlb"), util::ApvError);
  EXPECT_EQ(std::string(lb::make_strategy("greedyrefinelb")->name()),
            "greedyrefine");
}

TEST(Strategy, InvalidStatsRejected) {
  lb::LbStats stats;
  stats.num_pes = 2;
  stats.rank_load = {1.0, 2.0};
  stats.rank_pe = {0, 7};  // PE out of range
  EXPECT_THROW(lb::GreedyLb().assign(stats), util::ApvError);
  stats.rank_pe = {0};  // size mismatch
  EXPECT_THROW(lb::GreedyLb().assign(stats), util::ApvError);
}

TEST(Helpers, ImbalanceAndMigrationCount) {
  lb::LbStats stats;
  stats.num_pes = 2;
  stats.rank_load = {3.0, 1.0};
  stats.rank_pe = {0, 0};
  EXPECT_NEAR(lb::assignment_imbalance(
                  stats, lb::Assignment(stats.rank_pe.begin(),
                                        stats.rank_pe.end())),
              2.0, 1e-12);
  const lb::Assignment moved = {0, 1};
  EXPECT_NEAR(lb::assignment_imbalance(stats, moved), 1.5, 1e-12);
  EXPECT_EQ(lb::moved_ranks(stats, moved), 1);
  EXPECT_EQ(stats.pe_loads()[0], 4.0);
}

// With no service time measured (an empty service vector) the ranking is
// pure ready depth.
TEST(StealVictim, DeepestBacklogWins) {
  EXPECT_EQ(lb::pick_steal_victim({0, 3, 7, 2}, {}, 0), 2);
  EXPECT_EQ(lb::pick_steal_victim({9, 3, 7, 2}, {}, 3), 0);
}

TEST(StealVictim, TiesBreakTowardLowestPe) {
  EXPECT_EQ(lb::pick_steal_victim({0, 5, 5, 5}, {}, 0), 1);
}

TEST(StealVictim, SelfNeverPicked) {
  // PE 2 has the deepest queue but is asking for itself.
  EXPECT_EQ(lb::pick_steal_victim({0, 1, 9}, {}, 2), 1);
}

TEST(StealVictim, MinReadyFilters) {
  // Stealing a victim's only runnable rank just relocates the imbalance.
  EXPECT_EQ(lb::pick_steal_victim({0, 1, 1}, {}, 0, 2), -1);
  EXPECT_EQ(lb::pick_steal_victim({0, 1, 2}, {}, 0, 2), 2);
}

TEST(StealVictim, NoQualifierReturnsMinusOne) {
  EXPECT_EQ(lb::pick_steal_victim({0, 0, 0}, {}, 1), -1);
  EXPECT_EQ(lb::pick_steal_victim({}, {}, 0), -1);
  EXPECT_EQ(lb::pick_steal_victim({4}, {}, 0), -1);  // alone in the cluster
}

// --- rank by depth x recent service time -----------------------------------

TEST(StealVictimLatency, LongestEstimatedWaitWins) {
  // PE 2 is deepest, but its ULTs are quick (7 x 100ns = 700ns of work);
  // PE 3's three hogs are the backlog worth relieving (3 x 1000 = 3000ns).
  EXPECT_EQ(lb::pick_steal_victim({0, 3, 7, 3}, {0, 100, 100, 1000}, 0), 3);
  // With uniform service times the ranking degenerates to depth.
  EXPECT_EQ(lb::pick_steal_victim({0, 3, 7, 3}, {500, 500, 500, 500}, 0), 2);
}

TEST(StealVictimLatency, UnmeasuredPesFallBackToDepth) {
  // All-zero service estimates (nothing has run yet): pure depth ranking,
  // as with no estimates at all.
  EXPECT_EQ(lb::pick_steal_victim({0, 3, 7, 2}, {0, 0, 0, 0}, 0), 2);
  // A measured slow PE outranks an unmeasured deeper one: 2 x 5000ns beats
  // a neutral 7 x 1ns.
  EXPECT_EQ(lb::pick_steal_victim({0, 2, 7, 0}, {0, 5000, 0, 0}, 0), 1);
  // A short service vector is padded with the neutral estimate, not read
  // out of bounds.
  EXPECT_EQ(lb::pick_steal_victim({0, 3, 7, 2}, {0, 9000}, 0), 1);
}

TEST(StealVictimLatency, EqualWaitPrefersDeeperQueue) {
  // 6 x 100 == 2 x 300: the deeper queue gives the victim more slack to
  // still have something stealable when the request lands.
  EXPECT_EQ(lb::pick_steal_victim({0, 2, 6}, {0, 300, 100}, 0), 2);
}

TEST(StealVictimLatency, SelfAndMinReadyStillApply) {
  EXPECT_EQ(lb::pick_steal_victim({0, 1, 9}, {0, 100, 100}, 2), 1);
  EXPECT_EQ(lb::pick_steal_victim({0, 1, 1}, {0, 800, 900}, 0, 2), -1);
  EXPECT_EQ(lb::pick_steal_victim(std::vector<std::size_t>{},
                                  std::vector<std::uint64_t>{}, 0),
            -1);
}
