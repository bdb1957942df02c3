#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "core/validator.hpp"
#include "offline/deadline_solver.hpp"
#include "offline/exhaustive.hpp"
#include "offline/forward_sim.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol::offline {
namespace {

using core::Workload;
using platform::Platform;
using platform::PlatformClass;
using platform::SlaveSpec;

TEST(SljfPlan, EmptyInstance) {
  const Platform plat = Platform::homogeneous(2, 1.0, 1.0);
  EXPECT_TRUE(sljf_plan(plat, {}).assignment.empty());
}

TEST(SljfPlan, SingleTaskGoesToAFastEnoughSlave) {
  const Platform plat({SlaveSpec{1.0, 3.0}, SlaveSpec{1.0, 7.0}});
  const OfflinePlan plan = sljf_plan(plat, {0.0});
  ASSERT_EQ(plan.assignment.size(), 1u);
  EXPECT_EQ(plan.assignment[0], 0);
  EXPECT_NEAR(plan.makespan, 4.0, 1e-6);
}

TEST(SljfPlan, RejectsUnsortedReleases) {
  const Platform plat = Platform::homogeneous(2, 1.0, 1.0);
  EXPECT_THROW(sljf_plan(plat, {1.0, 0.0}), std::invalid_argument);
}

TEST(SljfPlan, TheoremOnePlatformThreeTasks) {
  // The instance from Theorem 1's end-game: releases 0, c, 2c on
  // (p1=3, p2=7, c=1). Optimal makespan is 8 (i on P2, j and k on P1).
  const Platform plat({SlaveSpec{1.0, 3.0}, SlaveSpec{1.0, 7.0}});
  const OfflinePlan plan = sljf_plan(plat, {0.0, 1.0, 2.0});
  EXPECT_NEAR(plan.makespan, 8.0, 1e-6);
}

/// SLJF's defining property (from [23], relied upon by Sec 4.1): optimal
/// makespan on communication-homogeneous platforms. Cross-checked against
/// the exhaustive solver on random instances, with and without releases.
class SljfOptimality : public ::testing::TestWithParam<int> {};

TEST_P(SljfOptimality, MatchesExhaustiveOnCommHomogeneous) {
  util::Rng rng(static_cast<std::uint64_t>(3000 + GetParam()));
  const platform::PlatformGenerator gen;
  const Platform plat = gen.generate(PlatformClass::kCommHomogeneous, 3, rng);
  const int n = 8;
  const Workload work = (GetParam() % 2 == 0)
                            ? Workload::all_at_zero(n)
                            : Workload::poisson(n, 1.0, rng);
  std::vector<core::Time> releases;
  for (int i = 0; i < n; ++i) releases.push_back(work.at(i).release);

  const OfflinePlan plan = sljf_plan(plat, releases);
  const double opt =
      solve_optimal(plat, work, core::Objective::kMakespan).objective;
  EXPECT_NEAR(plan.makespan, opt, 1e-6);

  const core::Schedule replay = simulate_assignment(plat, work, plan.assignment);
  EXPECT_TRUE(core::validate(plat, work, replay).empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SljfOptimality, ::testing::Range(0, 16));

/// SLJFWC's defining property: optimal makespan on computation-homogeneous
/// platforms (heterogeneous links), verified empirically the same way.
class SljfwcOptimality : public ::testing::TestWithParam<int> {};

TEST_P(SljfwcOptimality, MatchesExhaustiveOnCompHomogeneous) {
  util::Rng rng(static_cast<std::uint64_t>(4000 + GetParam()));
  const platform::PlatformGenerator gen;
  const Platform plat = gen.generate(PlatformClass::kCompHomogeneous, 3, rng);
  const int n = 8;
  const Workload work = (GetParam() % 2 == 0)
                            ? Workload::all_at_zero(n)
                            : Workload::poisson(n, 1.0, rng);
  std::vector<core::Time> releases;
  for (int i = 0; i < n; ++i) releases.push_back(work.at(i).release);

  const OfflinePlan plan = sljfwc_plan(plat, releases);
  const double opt =
      solve_optimal(plat, work, core::Objective::kMakespan).objective;
  // The backward construction plus the count-move local search has matched
  // the exhaustive optimum on every instance in this sweep; the tolerance
  // only absorbs bisection epsilon.
  EXPECT_LE(plan.makespan, opt + 1e-6);
  EXPECT_GE(plan.makespan, opt - 1e-6);  // never better than optimal
}

INSTANTIATE_TEST_SUITE_P(Seeds, SljfwcOptimality, ::testing::Range(0, 30));

TEST(SljfwcPlan, PrefersFastLinksOnCompHomogeneousPlatforms) {
  // Two equal-speed slaves, one link 10x faster: with a stream of tasks the
  // fast link must carry at least as many tasks as the slow one.
  const Platform plat({SlaveSpec{0.1, 2.0}, SlaveSpec{1.0, 2.0}});
  const OfflinePlan plan =
      sljfwc_plan(plat, std::vector<core::Time>(10, 0.0));
  int fast = 0, slow = 0;
  for (core::SlaveId j : plan.assignment) (j == 0 ? fast : slow)++;
  EXPECT_GE(fast, slow);
}

TEST(SljfPlan, SplitsLoadByProcessorSpeed) {
  // p0=1, p1=4, c=0.1: the fast slave should receive the lion's share.
  const Platform plat({SlaveSpec{0.1, 1.0}, SlaveSpec{0.1, 4.0}});
  const OfflinePlan plan = sljf_plan(plat, std::vector<core::Time>(10, 0.0));
  int fast = 0;
  for (core::SlaveId j : plan.assignment) fast += (j == 0);
  EXPECT_GE(fast, 7);  // ~4/5 of the work at equal port cost
}

// PlanTieOrder pins the planners' tie rule: slots are ordered by deadline,
// then by slave index. The platforms have integer costs, so chain deadlines
// of different slaves tie exactly and each expected send order follows
// from the rule alone.

/// `head` followed by `pairs` copies of {0, 1}.
std::vector<core::SlaveId> pairs_after(std::vector<core::SlaveId> head,
                                       int pairs) {
  for (int k = 0; k < pairs; ++k) {
    head.push_back(0);
    head.push_back(1);
  }
  return head;
}

TEST(PlanTieOrder, SljfGivesABoundaryTieToTheLowestSlave) {
  // Three identical chains: the 3 slots at M - 3 and one of the three tied
  // slots at M - 6. The 4th slot goes to slave 0, and its deadline is the
  // earliest, so it is sent first; the M - 3 level follows in slave order.
  const Platform plat = Platform::homogeneous(3, 1.0, 3.0);
  const OfflinePlan plan = sljf_plan(plat, std::vector<core::Time>(4, 0.0));
  EXPECT_EQ(plan.assignment, (std::vector<core::SlaveId>{0, 0, 1, 2}));
  EXPECT_NEAR(plan.makespan, 7.0, 1e-6);
}

TEST(PlanTieOrder, SljfSendsTiedDeadlinesInSlaveOrder) {
  // Two identical chains and 17 tasks: levels M - 1 .. M - 8 hold both
  // slaves, the 17th slot is slave 0's at M - 9. Ascending: slave 0's
  // M - 9, then each level as slave 0, slave 1.
  const Platform plat = Platform::homogeneous(2, 1.0, 1.0);
  const OfflinePlan plan = sljf_plan(plat, std::vector<core::Time>(17, 0.0));
  EXPECT_EQ(plan.assignment, pairs_after({0}, 8));
  EXPECT_NEAR(plan.makespan, 18.0, 1e-6);
}

TEST(PlanTieOrder, SljfwcSendsTiedDeadlinesInSlaveOrder) {
  // Computation-homogeneous (p = 2) with links 1 and 2: the local search
  // settles on 11 tasks for slave 0 and 6 for slave 1 and rebuilds the send
  // order from those counts. Slave 0's five deepest slots come first, then
  // the six shared levels, each as slave 0, slave 1.
  const Platform plat({SlaveSpec{1.0, 2.0}, SlaveSpec{2.0, 2.0}});
  const OfflinePlan plan =
      sljfwc_plan(plat, std::vector<core::Time>(17, 0.0));
  EXPECT_EQ(plan.assignment, pairs_after({0, 0, 0, 0, 0}, 6));
  EXPECT_NEAR(plan.makespan, 25.0, 1e-6);
}

TEST(SljfPlan, BisectedMakespanDecidesWhichOffsetsRoundTogether) {
  // Releases just below 2^53, where a double's spacing is 1: the deadlines
  // fl(M - k p_j) of distinct offsets k p_j round together or apart
  // depending on M, so the plan depends on the bisected makespan, not only
  // on the slot set. Planning at the initial bracket's M instead gives
  // [0, 1, 1] and a makespan of 2^53 - 5.
  const Platform plat({SlaveSpec{0.75, 2.75}, SlaveSpec{0.25, 0.5}});
  const core::Time two53 = 9007199254740992.0;
  const OfflinePlan plan =
      sljf_plan(plat, std::vector<core::Time>(3, two53 - 9.0));
  EXPECT_EQ(plan.assignment, (std::vector<core::SlaveId>{1, 1, 1}));
  const core::Time want = two53 - 8.0;
  std::uint64_t bits = 0;
  std::uint64_t want_bits = 0;
  std::memcpy(&bits, &plan.makespan, sizeof bits);
  std::memcpy(&want_bits, &want, sizeof want_bits);
  EXPECT_EQ(bits, want_bits) << plan.makespan;
}

/// FNV-1a over a plan's assignment and the bit pattern of its makespan:
/// any change to a slave id, to the send order or to the makespan's last
/// bit changes the digest.
void hash_plan(const OfflinePlan& plan, std::uint64_t& h) {
  const auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  mix(plan.assignment.size());
  for (core::SlaveId j : plan.assignment) mix(static_cast<std::uint64_t>(j));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &plan.makespan, sizeof bits);
  mix(bits);
}

/// The platforms the plan goldens run on: 25 generated platforms per class
/// (2-8 slaves; the homogeneous classes give every slave the same chain,
/// so slot deadlines tie across slaves) plus hand-made platforms whose
/// integer costs make deadlines of different slaves coincide exactly.
std::vector<Platform> golden_platforms() {
  std::vector<Platform> out = {
      Platform::homogeneous(5, 0.5, 2.0),
      Platform::homogeneous(3, 1.0, 1.0),
      Platform({SlaveSpec{1.0, 3.0}, SlaveSpec{1.0, 7.0}}),
      Platform({SlaveSpec{1.0, 2.0}, SlaveSpec{1.0, 4.0}, SlaveSpec{1.0, 8.0}}),
      Platform({SlaveSpec{0.25, 2.0}, SlaveSpec{0.5, 2.0}, SlaveSpec{1.0, 4.0},
                SlaveSpec{0.25, 4.0}}),
  };
  const platform::PlatformGenerator gen;
  const PlatformClass classes[] = {
      PlatformClass::kFullyHomogeneous, PlatformClass::kCommHomogeneous,
      PlatformClass::kCompHomogeneous, PlatformClass::kFullyHeterogeneous};
  for (const PlatformClass cls : classes) {
    for (int k = 0; k < 25; ++k) {
      util::Rng rng(static_cast<std::uint64_t>(
          7000 + 100 * static_cast<int>(cls) + k));
      out.push_back(gen.generate(cls, 2 + k % 7, rng));
    }
  }
  return out;
}

/// Pins both planners bit for bit: the digest of every plan's assignment
/// and makespan bits, per planner and release pattern. The n = 1000 batches
/// released together (at 0 and at one later instant) are how the plan
/// rankers call the planners; the small sorted Poisson vectors exercise
/// the release checks. At 1e13 a double's spacing is 2^-9, so the deadlines
/// M - k p_j of distinct slot offsets k p_j round to equal values on many
/// platforms; that batch pins how the planners treat such collisions. A
/// planner change that is meant to be exact must leave every digest as it
/// is.
TEST(PlanGolden, AssignmentsAndMakespanBitsArePinned) {
  const std::vector<Platform> platforms = golden_platforms();
  struct Pattern {
    std::string name;
    std::uint64_t sljf;
    std::uint64_t sljfwc;
  };
  const std::vector<Pattern> pinned = {
      {"batch-at-0", 0xfe47239ade7e11b9ULL, 0xea002bf61d5518dfULL},
      {"batch-at-t", 0x90e9afbfb1080a65ULL, 0xf2dcc77d47eced3eULL},
      {"poisson", 0xdb81fd8fe1c345feULL, 0xe792426d42593ff8ULL},
      {"batch-at-1e13", 0xdcf901ffd67e4572ULL, 0x9a08fdf812456eb2ULL},
  };
  for (const Pattern& pattern : pinned) {
    std::uint64_t h_sljf = 0xcbf29ce484222325ULL;
    std::uint64_t h_sljfwc = h_sljf;
    for (std::size_t i = 0; i < platforms.size(); ++i) {
      std::vector<core::Time> releases;
      if (pattern.name == "batch-at-0") {
        releases.assign(1000, 0.0);
      } else if (pattern.name == "batch-at-t") {
        releases.assign(1000, 123.456789);
      } else if (pattern.name == "batch-at-1e13") {
        releases.assign(1000, 1e13);
      } else {
        util::Rng rng(static_cast<std::uint64_t>(9000 + i));
        const Workload work =
            Workload::poisson(5 + static_cast<int>(i % 4) * 15, 1.5, rng);
        for (int t = 0; t < work.size(); ++t) {
          releases.push_back(work.at(t).release);
        }
      }
      hash_plan(sljf_plan(platforms[i], releases), h_sljf);
      hash_plan(sljfwc_plan(platforms[i], releases), h_sljfwc);
    }
    EXPECT_EQ(h_sljf, pattern.sljf)
        << pattern.name << " sljf digest 0x" << std::hex << h_sljf;
    EXPECT_EQ(h_sljfwc, pattern.sljfwc)
        << pattern.name << " sljfwc digest 0x" << std::hex << h_sljfwc;
  }
}

}  // namespace
}  // namespace msol::offline
