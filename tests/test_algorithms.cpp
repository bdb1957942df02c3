#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "algorithms/replay.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "offline/bounds.hpp"
#include "offline/exhaustive.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol::algorithms {
namespace {

using core::Objective;
using core::Schedule;
using core::Workload;
using platform::Platform;
using platform::PlatformClass;
using platform::SlaveSpec;

Platform het3() {
  // P0: fast compute / slow link; P1: slow compute / fast link; P2: middle.
  return Platform({SlaveSpec{2.0, 1.0}, SlaveSpec{0.5, 4.0},
                   SlaveSpec{1.0, 2.0}});
}

// --------------------------------------------------------------- SRPT ------

TEST(Srpt, SendsToFastestFreeSlave) {
  const auto srpt = make_scheduler("SRPT");
  const Schedule s = simulate(het3(), Workload::all_at_zero(1), *srpt);
  EXPECT_EQ(s.at(0).slave, 0);  // min p_j
}

TEST(Srpt, WaitsWhenAllSlavesBusy) {
  // One slave: after sending task 0, slave is busy; SRPT must idle until it
  // finishes, then send task 1.
  const Platform plat({SlaveSpec{1.0, 4.0}});
  const auto srpt = make_scheduler("SRPT");
  const Schedule s = simulate(plat, Workload::all_at_zero(2), *srpt);
  EXPECT_DOUBLE_EQ(s.at(0).comp_end, 5.0);
  EXPECT_DOUBLE_EQ(s.at(1).send_start, 5.0);  // waited for the free slave
  EXPECT_DOUBLE_EQ(s.at(1).comp_end, 10.0);
}

TEST(Srpt, NeverQueuesOnBusySlaves) {
  const auto srpt = make_scheduler("SRPT");
  const Schedule s = simulate(het3(), Workload::all_at_zero(6), *srpt);
  // A task's compute must start exactly at its arrival (no slave queueing).
  for (const core::TaskRecord& r : s.records()) {
    EXPECT_NEAR(r.comp_start, r.send_end, 1e-9);
  }
}

TEST(Srpt, TieBreaksOnCommThenId) {
  const Platform plat({SlaveSpec{2.0, 3.0}, SlaveSpec{1.0, 3.0}});
  const auto srpt = make_scheduler("SRPT");
  const Schedule s = simulate(plat, Workload::all_at_zero(1), *srpt);
  EXPECT_EQ(s.at(0).slave, 1);  // equal p, smaller c wins
}

// ----------------------------------------------------------------- LS ------

TEST(ListScheduling, PicksEarliestEstimatedCompletion) {
  const auto ls = make_scheduler("LS");
  const Schedule s = simulate(het3(), Workload::all_at_zero(1), *ls);
  // Completions: P0: 2+1=3, P1: 0.5+4=4.5, P2: 1+2=3 -> tie, lower id.
  EXPECT_EQ(s.at(0).slave, 0);
}

TEST(ListScheduling, QueuesOnBusySlaveWhenWorthIt) {
  // One fast slave, one very slow: LS should keep feeding the fast one.
  const Platform plat({SlaveSpec{0.1, 1.0}, SlaveSpec{0.1, 50.0}});
  const auto ls = make_scheduler("LS");
  const Schedule s = simulate(plat, Workload::all_at_zero(4), *ls);
  for (const core::TaskRecord& r : s.records()) EXPECT_EQ(r.slave, 0);
}

TEST(ListScheduling, NeverWaits) {
  const auto ls = make_scheduler("LS");
  const Schedule s = simulate(het3(), Workload::all_at_zero(5), *ls);
  // Sends are back-to-back from time 0 (master continuously busy).
  std::vector<core::TaskRecord> recs = s.records();
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) {
              return a.send_start < b.send_start;
            });
  EXPECT_DOUBLE_EQ(recs[0].send_start, 0.0);
  for (std::size_t i = 1; i < recs.size(); ++i) {
    EXPECT_NEAR(recs[i].send_start, recs[i - 1].send_end, 1e-9);
  }
}

// -------------------------------------------------------- round robins ------

TEST(RoundRobin, NamesMatchVariants) {
  EXPECT_EQ(make_scheduler("RR")->name(), "RR");
  EXPECT_EQ(make_scheduler("RRC")->name(), "RRC");
  EXPECT_EQ(make_scheduler("RRP")->name(), "RRP");
}

TEST(RoundRobin, CyclesInPrescribedOrder) {
  // het3 orderings: by c+p -> P0(3), P2(3), P1(4.5) => {0,2,1} (stable tie);
  // by c -> {1,2,0}; by p -> {0,2,1}.
  const auto rrc = make_scheduler("RRC");
  const Schedule s = simulate(het3(), Workload::all_at_zero(6), *rrc);
  EXPECT_EQ(s.at(0).slave, 1);
  EXPECT_EQ(s.at(1).slave, 2);
  EXPECT_EQ(s.at(2).slave, 0);
  EXPECT_EQ(s.at(3).slave, 1);  // wraps around
}

TEST(RoundRobin, ResetRestartsTheCycle) {
  const auto rr = make_scheduler("RRP");
  const Schedule first = simulate(het3(), Workload::all_at_zero(3), *rr);
  const Schedule second = simulate(het3(), Workload::all_at_zero(3), *rr);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(first.at(i).slave, second.at(i).slave);
  }
}

// ---------------------------------------------------------------- SLJF ------

TEST(Sljf, AchievesOptimalMakespanOnCommHomogeneousBatch) {
  // Batch of 8 at time 0, comm-homogeneous platform: SLJF with lookahead
  // >= n must equal the exhaustive optimum (its defining property).
  const Platform plat({SlaveSpec{0.5, 2.0}, SlaveSpec{0.5, 3.0},
                       SlaveSpec{0.5, 5.0}});
  const auto sljf = make_scheduler("SLJF", 8);
  const Workload work = Workload::all_at_zero(8);
  const Schedule s = simulate(plat, work, *sljf);
  const double opt =
      offline::solve_optimal(plat, work, Objective::kMakespan).objective;
  EXPECT_NEAR(s.makespan(), opt, 1e-6);
}

TEST(Sljfwc, AchievesOptimalMakespanOnCompHomogeneousBatch) {
  const Platform plat({SlaveSpec{0.2, 2.0}, SlaveSpec{0.7, 2.0},
                       SlaveSpec{1.5, 2.0}});
  const auto sljfwc = make_scheduler("SLJFWC", 8);
  const Workload work = Workload::all_at_zero(8);
  const Schedule s = simulate(plat, work, *sljfwc);
  const double opt =
      offline::solve_optimal(plat, work, Objective::kMakespan).objective;
  EXPECT_LE(s.makespan(), opt + 1e-6);
}

TEST(Sljf, TailFallsBackToListScheduling) {
  // Lookahead 2 on 5 tasks: the last three go through the LS rule; the run
  // must still complete and be feasible.
  const auto sljf = make_scheduler("SLJF", 2);
  const Workload work = Workload::all_at_zero(5);
  const Schedule s = simulate(het3(), work, *sljf);
  EXPECT_EQ(s.size(), 5);
  EXPECT_TRUE(core::validate(het3(), work, s).empty());
}

TEST(Sljf, LookaheadZeroIsPureListScheduling) {
  const auto sljf = make_scheduler("SLJF", 0);
  const auto ls = make_scheduler("LS");
  const Workload work = Workload::all_at_zero(6);
  const Schedule a = simulate(het3(), work, *sljf);
  const Schedule b = simulate(het3(), work, *ls);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(a.at(i).slave, b.at(i).slave);
}

TEST(Sljf, ResetClearsThePlan) {
  const auto sljf = make_scheduler("SLJF", 4);
  const Schedule a = simulate(het3(), Workload::all_at_zero(4), *sljf);
  const Schedule b = simulate(het3(), Workload::all_at_zero(4), *sljf);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.at(i).slave, b.at(i).slave);
}

TEST(Sljf, RejectsNegativeLookahead) {
  EXPECT_THROW(make_scheduler("SLJF", -1), std::invalid_argument);
}

// -------------------------------------------------------------- replay ------

TEST(Replay, ThrowsWhenPlanTooShort) {
  Replay replay({0});
  EXPECT_THROW(simulate(het3(), Workload::all_at_zero(2), replay),
               std::logic_error);
}

// ------------------------------------------------------------ registry ------

TEST(Registry, BuildsAllPaperAlgorithms) {
  for (const std::string& name : paper_algorithm_names()) {
    const auto scheduler = make_scheduler(name);
    EXPECT_EQ(scheduler->name(), name);
  }
  EXPECT_EQ(paper_algorithm_names().size(), 7u);
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_scheduler("HEFT"), std::invalid_argument);
}

TEST(Registry, RandomIsSeededAndDeterministic) {
  auto a = make_scheduler("RANDOM", 0, 9);
  auto b = make_scheduler("RANDOM", 0, 9);
  const Workload work = Workload::all_at_zero(10);
  const Schedule sa = simulate(het3(), work, *a);
  const Schedule sb = simulate(het3(), work, *b);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(sa.at(i).slave, sb.at(i).slave);
}

// -------------------------------------------- cross-cutting properties ------

struct PropertyCase {
  int seed;
  PlatformClass cls;
};

class AlgorithmProperties
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AlgorithmProperties, FeasibleAndNeverBelowOptimum) {
  const int seed = std::get<0>(GetParam());
  const auto cls = static_cast<PlatformClass>(std::get<1>(GetParam()));
  util::Rng rng(static_cast<std::uint64_t>(7000 + seed));
  const platform::PlatformGenerator gen;
  const Platform plat = gen.generate(cls, 3, rng);
  const Workload work = Workload::poisson(7, 1.5, rng);

  const offline::OptimalTriple opt = offline::solve_optimal_all(plat, work);
  const offline::LowerBounds lb = offline::lower_bounds(plat, work);

  for (const std::string& name : paper_algorithm_names()) {
    const auto scheduler = make_scheduler(name, /*lookahead=*/7);
    const Schedule s = simulate(plat, work, *scheduler);
    EXPECT_TRUE(core::validate(plat, work, s).empty()) << scheduler->name();
    for (Objective obj : core::all_objectives()) {
      EXPECT_GE(s.objective(obj), opt.get(obj) - 1e-6)
          << scheduler->name() << " beat the optimum on " << to_string(obj);
      EXPECT_GE(s.objective(obj), lb.get(obj) - 1e-6)
          << scheduler->name() << " beat a lower bound on " << to_string(obj);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByClass, AlgorithmProperties,
    ::testing::Combine(::testing::Range(0, 8), ::testing::Range(0, 4)));

TEST(HomogeneousOptimality, ListSchedulingIsOptimalOnHomogeneousPlatforms) {
  // Sec 1: the FIFO/earliest-ready list strategy solves the homogeneous
  // case optimally for all three objectives.
  for (int seed = 0; seed < 8; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(8000 + seed));
    const platform::PlatformGenerator gen;
    const Platform plat =
        gen.generate(PlatformClass::kFullyHomogeneous, 3, rng);
    const Workload work = Workload::poisson(7, 1.0, rng);
    const auto ls = make_scheduler("LS");
    const Schedule s = simulate(plat, work, *ls);
    const offline::OptimalTriple opt = offline::solve_optimal_all(plat, work);
    for (Objective obj : core::all_objectives()) {
      EXPECT_NEAR(s.objective(obj), opt.get(obj), 1e-6)
          << "seed " << seed << " " << to_string(obj);
    }
  }
}

}  // namespace
}  // namespace msol::algorithms
