// Tests for the library's beyond-the-paper features: the MINREADY and WRR
// schedulers, background-load (slowdown window) injection, and the
// automated adversarial search.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "algorithms/policy.hpp"
#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "offline/exhaustive.hpp"
#include "platform/generator.hpp"
#include "theory/bounds.hpp"
#include "theory/search.hpp"
#include "util/rng.hpp"

namespace msol {
namespace {

using core::Schedule;
using core::Workload;
using platform::Platform;
using platform::SlaveSpec;

// ------------------------------------------------------------ MINREADY ------

TEST(MinReady, PicksTheLeastLoadedSlave) {
  // After one task each, the next task goes to whoever frees first.
  const Platform plat({SlaveSpec{0.1, 1.0}, SlaveSpec{0.1, 9.0}});
  const auto policy = algorithms::make_scheduler("MINREADY");
  const Schedule s = core::simulate(plat, Workload::all_at_zero(3), *policy);
  EXPECT_EQ(s.at(0).slave, 0);  // both idle, lower id
  EXPECT_EQ(s.at(1).slave, 1);  // slave 0 now busy until 1.1
  EXPECT_EQ(s.at(2).slave, 0);  // ready 1.1 vs slave 1's 9.2
}

TEST(MinReady, MatchesListSchedulingOnHomogeneousPlatforms) {
  util::Rng rng(17);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHomogeneous, 3, rng);
  const Workload work = Workload::poisson(20, 2.0, rng);
  const auto min_ready = algorithms::make_scheduler("MINREADY");
  const auto ls = algorithms::make_scheduler("LS");
  const Schedule a = core::simulate(plat, work, *min_ready);
  const Schedule b = core::simulate(plat, work, *ls);
  EXPECT_NEAR(a.makespan(), b.makespan(), 1e-9);
  EXPECT_NEAR(a.sum_flow(), b.sum_flow(), 1e-9);
}

// ----------------------------------------------------------------- WRR ------

TEST(Wrr, SharesSolveTheThroughputLp) {
  // P0: c=0.5, p=1 -> full rate 1 uses half the port; P1: c=1, p=2 -> rate
  // 0.5 uses the other half exactly.
  const Platform plat({SlaveSpec{0.5, 1.0}, SlaveSpec{1.0, 2.0}});
  const std::vector<double> x = algorithms::wrr_shares(plat);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
}

TEST(Wrr, SkipsSlavesOutsideTheLpSupport) {
  // The port saturates on the first (cheap, fast) slave; the expensive one
  // gets nothing.
  const Platform plat({SlaveSpec{1.0, 0.5}, SlaveSpec{10.0, 0.5}});
  const std::vector<double> x = algorithms::wrr_shares(plat);
  EXPECT_GT(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);

  const auto wrr = algorithms::make_scheduler("WRR");
  const Schedule s = core::simulate(plat, Workload::all_at_zero(10), *wrr);
  for (const core::TaskRecord& r : s.records()) EXPECT_EQ(r.slave, 0);
}

TEST(Wrr, LongRunShareMatchesTheLp) {
  const Platform plat({SlaveSpec{0.1, 1.0}, SlaveSpec{0.1, 3.0}});
  const auto wrr = algorithms::make_scheduler("WRR");
  const int n = 400;
  const Schedule s = core::simulate(plat, Workload::all_at_zero(n), *wrr);
  int on_fast = 0;
  for (const core::TaskRecord& r : s.records()) on_fast += (r.slave == 0);
  // Shares 1 : 1/3 -> fast slave gets 3/4 of the stream.
  EXPECT_NEAR(static_cast<double>(on_fast) / n, 0.75, 0.02);
}

TEST(Wrr, BeatsPlainRoundRobinOnSkewedPlatforms) {
  const Platform plat({SlaveSpec{0.05, 0.5}, SlaveSpec{0.05, 8.0}});
  const Workload work = Workload::all_at_zero(100);
  const auto wrr = algorithms::make_scheduler("WRR");
  const auto rr = algorithms::make_scheduler("RR");
  EXPECT_LT(core::simulate(plat, work, *wrr).makespan(),
            0.5 * core::simulate(plat, work, *rr).makespan());
}

TEST(Registry, ExtendedNamesBuild) {
  for (const std::string& name : algorithms::extended_algorithm_names()) {
    EXPECT_EQ(algorithms::make_scheduler(name)->name(), name);
  }
  EXPECT_EQ(algorithms::extended_algorithm_names().size(), 10u);
}

// ----------------------------------------------------------------- RLS ------

TEST(RandomizedLs, DeterministicPerSeed) {
  util::Rng rng(31);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, 4, rng);
  const Workload work = Workload::poisson(30, 2.0, rng);
  const auto a = algorithms::make_scheduler("RLS", 0, 9);
  const auto b = algorithms::make_scheduler("RLS", 0, 9);
  const Schedule sa = core::simulate(plat, work, *a);
  const Schedule sb = core::simulate(plat, work, *b);
  for (int i = 0; i < work.size(); ++i) EXPECT_EQ(sa.at(i).slave, sb.at(i).slave);
}

TEST(RandomizedLs, ThetaZeroOnlyRandomizesExactTies) {
  // Distinct completion times at every decision -> identical to LS.
  const Platform plat({SlaveSpec{0.1, 1.0}, SlaveSpec{0.2, 7.0}});
  const Workload work = Workload::all_at_zero(6);
  const auto rls = algorithms::make_scheduler("RLS+eps:0", 1000, 123);
  const auto ls = algorithms::make_scheduler("LS");
  const Schedule a = core::simulate(plat, work, *rls);
  const Schedule b = core::simulate(plat, work, *ls);
  for (int i = 0; i < work.size(); ++i) EXPECT_EQ(a.at(i).slave, b.at(i).slave);
}

TEST(RandomizedLs, ActuallyRandomizesNearTies) {
  // Two identical slaves: across seeds, both must get picked first.
  const Platform plat = Platform::homogeneous(2, 0.5, 2.0);
  bool saw0 = false, saw1 = false;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto rls = algorithms::make_scheduler("RLS+eps:0", 1000, seed);
    const Schedule s = core::simulate(plat, Workload::all_at_zero(1), *rls);
    (s.at(0).slave == 0 ? saw0 : saw1) = true;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

TEST(RandomizedLs, RejectsNegativeTheta) {
  EXPECT_THROW(algorithms::make_scheduler("RLS+eps:-0.1"),
               std::invalid_argument);
}

TEST(RandomizedLs, SchedulesAreFeasible) {
  util::Rng rng(32);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, 4, rng);
  const Workload work = Workload::poisson(40, 2.0, rng);
  const auto rls = algorithms::make_scheduler("RLS+eps:0.3", 1000, 77);
  const Schedule s = core::simulate(plat, work, *rls);
  EXPECT_TRUE(core::validate(plat, work, s).empty());
}

// ----------------------------------------------------- slowdown windows ------

TEST(Slowdown, FactorAppliesInsideWindowOnly) {
  const std::vector<core::SlowdownWindow> windows = {
      {0, 2.0, 5.0, 3.0}};
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 4.9), 3.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 1, 3.0), 1.0);
}

TEST(Slowdown, WindowEdgeToleranceIsSymmetric) {
  // [2, 5) with factor 3. The closed begin boundary forgives fp noise
  // outward (anything >= begin - eps is inside); the open end boundary is
  // exact. The old predicate (`comp_start < end - eps`) shifted the whole
  // window left by eps: a compute starting eps/2 *inside* the final sliver
  // escaped the slowdown while one the same distance *before* begin caught
  // it.
  const std::vector<core::SlowdownWindow> windows = {{0, 2.0, 5.0, 3.0}};
  const core::Time eps = core::kTimeEps;

  // Begin boundary: tolerance reaches eps outward, no further.
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 2.0 - 2.0 * eps), 1.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 2.0 - 0.5 * eps), 3.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 2.0 + 0.5 * eps), 3.0);

  // End boundary: half-open, so end itself is out — but everything strictly
  // before it is in, including the last eps sliver the old code dropped.
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 5.0 - 2.0 * eps), 3.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 5.0 - 0.5 * eps), 3.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 5.0), 1.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 5.0 + 0.5 * eps), 1.0);
}

TEST(Slowdown, AdjacentWindowsHandOffWithoutDoubleCounting) {
  // Back-to-back windows on one slave: a compute starting exactly at the
  // boundary belongs to the *later* window only.
  const std::vector<core::SlowdownWindow> windows = {{0, 0.0, 5.0, 2.0},
                                                     {0, 5.0, 10.0, 3.0}};
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 4.5), 2.0);
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 5.0), 3.0);
  EXPECT_DOUBLE_EQ(
      core::slowdown_factor_at(windows, 0, 5.0 - 0.5 * core::kTimeEps),
      2.0 * 3.0);  // inside [0,5) exactly, and inside [5,10)'s begin
                   // tolerance band — both legitimately apply
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 5.5), 3.0);
}

TEST(Slowdown, OverlappingWindowsCompound) {
  const std::vector<core::SlowdownWindow> windows = {
      {0, 0.0, 10.0, 2.0}, {0, 5.0, 10.0, 3.0}};
  EXPECT_DOUBLE_EQ(core::slowdown_factor_at(windows, 0, 6.0), 6.0);
}

TEST(Slowdown, EngineChargesDegradedDuration) {
  const Platform plat({SlaveSpec{1.0, 3.0}});
  core::EngineOptions options;
  options.slowdowns.push_back(core::SlowdownWindow{0, 0.5, 2.0, 2.0});
  const auto ls = algorithms::make_scheduler("LS");
  const Workload work = Workload::all_at_zero(1);
  const Schedule s = core::simulate(plat, work, *ls, options);
  // Compute starts at 1.0 (inside the window): 3.0 * 2 = 6.
  EXPECT_DOUBLE_EQ(s.at(0).comp_end, 7.0);
  EXPECT_TRUE(core::validate(plat, work, s, options).empty());
  // The nominal validator must now reject it.
  EXPECT_FALSE(core::validate(plat, work, s).empty());
}

TEST(Slowdown, EngineRejectsNonPositiveOrNonFiniteFactors) {
  // A factor <= 0 would end a compute before it starts, so the slave would
  // appear to run two tasks at once; the engine refuses it up front.
  util::Rng rng(31);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, 3, rng);
  const Workload work = Workload::poisson(30, 3.0, rng);
  for (const double factor : {-2.0, 0.0, std::nan("")}) {
    core::EngineOptions options;
    options.slowdowns.push_back(core::SlowdownWindow{1, 0.0, 1e9, factor});
    const auto ls = algorithms::make_scheduler("LS");
    EXPECT_THROW(core::simulate(plat, work, *ls, options),
                 std::invalid_argument)
        << factor;
  }
  core::EngineOptions faster;
  faster.slowdowns.push_back(core::SlowdownWindow{1, 0.0, 1e9, 0.5});
  const auto ls = algorithms::make_scheduler("LS");
  const Schedule s = core::simulate(plat, work, *ls, faster);
  EXPECT_TRUE(core::validate(plat, work, s, faster).empty());
}

TEST(Slowdown, SchedulerEstimatesStayNominal) {
  // completion_if_assigned must ignore windows (the scheduler is blind).
  const Platform plat({SlaveSpec{1.0, 3.0}});
  core::EngineOptions options;
  options.slowdowns.push_back(core::SlowdownWindow{0, 0.0, 100.0, 5.0});
  class Probe : public core::OnlineScheduler {
   public:
    std::string name() const override { return "Probe"; }
    core::Decision decide(const core::EngineView& engine) override {
      estimate = engine.completion_if_assigned(engine.pending_front(), 0);
      return core::Assign{engine.pending_front(), 0};
    }
    core::Time estimate = 0.0;
  } probe;
  core::OnePortEngine engine(plat, probe, options);
  engine.load(Workload::all_at_zero(1));
  engine.run_to_completion();
  EXPECT_DOUBLE_EQ(probe.estimate, 4.0);                  // nominal
  EXPECT_DOUBLE_EQ(engine.schedule().at(0).comp_end, 16.0);  // degraded
}

TEST(Slowdown, DegradationOnlyEverHurts) {
  util::Rng rng(23);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, 3, rng);
  const Workload work = Workload::poisson(30, 3.0, rng);
  core::EngineOptions degraded;
  degraded.slowdowns.push_back(core::SlowdownWindow{0, 0.0, 1e9, 2.0});
  for (const std::string& name : {std::string("LS"), std::string("RR")}) {
    const auto a = algorithms::make_scheduler(name);
    const auto b = algorithms::make_scheduler(name);
    const double nominal = core::simulate(plat, work, *a).makespan();
    const double loaded = core::simulate(plat, work, *b, degraded).makespan();
    EXPECT_GE(loaded, nominal - 1e-9) << name;
  }
}

// ---------------------------------------------------- adversarial search ------

TEST(AdversarialSearch, FindsHardInstancesForRoundRobin) {
  // RR on comm-homogeneous platforms is far from optimal; even a short
  // search should push its makespan ratio well past Theorem 1's 1.25.
  theory::SearchConfig config;
  config.objective = core::Objective::kMakespan;
  config.platform_class = platform::PlatformClass::kCommHomogeneous;
  config.iterations = 300;
  config.restarts = 2;
  config.num_tasks = 4;
  const auto rr = algorithms::make_scheduler("RR");
  const theory::SearchResult result = theory::adversarial_search(*rr, config);
  EXPECT_GE(result.ratio, theory::bound::thm1_comm_makespan());
  EXPECT_GT(result.opt_value, 0.0);
  EXPECT_NEAR(result.ratio, result.alg_value / result.opt_value, 1e-9);
}

TEST(AdversarialSearch, RespectsPlatformClass) {
  theory::SearchConfig config;
  config.platform_class = platform::PlatformClass::kCommHomogeneous;
  config.iterations = 50;
  config.restarts = 1;
  const auto ls = algorithms::make_scheduler("LS");
  const theory::SearchResult result = theory::adversarial_search(*ls, config);
  ASSERT_EQ(result.platform.size(), 2u);
  EXPECT_NEAR(result.platform[0].comm, result.platform[1].comm, 1e-12);
}

TEST(AdversarialSearch, DeterministicInSeed) {
  theory::SearchConfig config;
  config.iterations = 100;
  config.restarts = 1;
  config.seed = 5;
  const auto a = algorithms::make_scheduler("RRP");
  const auto b = algorithms::make_scheduler("RRP");
  EXPECT_DOUBLE_EQ(theory::adversarial_search(*a, config).ratio,
                   theory::adversarial_search(*b, config).ratio);
}

TEST(AdversarialSearch, RatioNeverBelowOne) {
  theory::SearchConfig config;
  config.iterations = 50;
  config.restarts = 1;
  const auto ls = algorithms::make_scheduler("LS");
  EXPECT_GE(theory::adversarial_search(*ls, config).ratio, 1.0 - 1e-9);
}

TEST(AdversarialSearch, RejectsEmptyInstancesAndNegativeBudgets) {
  // With no task, a release mutation would draw uniform_int(0, -1).
  const auto ls = algorithms::make_scheduler("LS");
  for (const int tasks : {0, -3}) {
    theory::SearchConfig config;
    config.num_tasks = tasks;
    EXPECT_THROW(theory::adversarial_search(*ls, config),
                 std::invalid_argument)
        << "tasks = " << tasks;
  }
  theory::SearchConfig negative_iterations;
  negative_iterations.iterations = -1;
  EXPECT_THROW(theory::adversarial_search(*ls, negative_iterations),
               std::invalid_argument);
  theory::SearchConfig no_restarts;
  no_restarts.restarts = 0;
  EXPECT_THROW(theory::adversarial_search(*ls, no_restarts),
               std::invalid_argument);
}

TEST(AdversarialSearch, RecordsTheStartInstanceWithoutIterations) {
  theory::SearchConfig config;
  config.platform_class = platform::PlatformClass::kFullyHeterogeneous;
  config.num_slaves = 3;
  config.iterations = 0;
  config.restarts = 1;
  const auto ls = algorithms::make_scheduler("LS");
  const theory::SearchResult result = theory::adversarial_search(*ls, config);
  ASSERT_EQ(result.platform.size(), 3u);
  ASSERT_EQ(result.releases.size(), 4u);

  // The recorded ratio is the start instance's, re-evaluated from scratch.
  const Platform plat(result.platform);
  const Workload work = Workload::from_releases(result.releases);
  const double alg = core::simulate(plat, work, *ls).makespan();
  const double opt =
      offline::solve_optimal(plat, work, core::Objective::kMakespan).objective;
  EXPECT_DOUBLE_EQ(result.alg_value, alg);
  EXPECT_DOUBLE_EQ(result.opt_value, opt);
  EXPECT_DOUBLE_EQ(result.ratio, alg / opt);
}

}  // namespace
}  // namespace msol
