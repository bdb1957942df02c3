// Time-varying slave availability: profile mechanics, the deterministic
// generators, and the engine semantics (outage -> abort + re-dispatch,
// drift -> piecewise compute, offline slaves skipped by every policy).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "algorithms/replay.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "platform/availability.hpp"
#include "platform/platform.hpp"
#include "util/rng.hpp"

namespace msol::platform {
namespace {

// ----------------------------------------------------------- profiles ------

TEST(AvailabilityProfile, TrivialProfileIsAlwaysOnlineAtNominalSpeed) {
  const AvailabilityProfile p;
  EXPECT_TRUE(p.trivial());
  EXPECT_TRUE(p.online_at(0.0));
  EXPECT_TRUE(p.online_at(1e9));
  EXPECT_DOUBLE_EQ(p.speed_at(123.0), 1.0);
  EXPECT_FALSE(p.next_offline_after(0.0).has_value());
  EXPECT_DOUBLE_EQ(p.online_work_between(2.0, 5.0), 3.0);
}

TEST(AvailabilityProfile, StateFollowsSpans) {
  const AvailabilityProfile p({{2.0, false, 1.0},
                               {5.0, true, 0.5},
                               {8.0, true, 2.0}});
  EXPECT_TRUE(p.online_at(0.0));
  EXPECT_TRUE(p.online_at(1.999));
  EXPECT_FALSE(p.online_at(2.0));  // span begins are closed
  EXPECT_FALSE(p.online_at(4.9));
  EXPECT_TRUE(p.online_at(5.0));
  EXPECT_DOUBLE_EQ(p.speed_at(6.0), 0.5);
  EXPECT_DOUBLE_EQ(p.speed_at(8.0), 2.0);
  EXPECT_DOUBLE_EQ(p.speed_at(1e6), 2.0);  // last span persists

  ASSERT_TRUE(p.next_offline_after(0.0).has_value());
  EXPECT_DOUBLE_EQ(*p.next_offline_after(0.0), 2.0);
  EXPECT_FALSE(p.next_offline_after(2.0).has_value());  // never down again
}

TEST(AvailabilityProfile, WorkIntegralSkipsOfflineAndScalesWithSpeed) {
  const AvailabilityProfile p({{2.0, false, 1.0},
                               {5.0, true, 0.5},
                               {8.0, true, 2.0}});
  // [0,2) at speed 1 -> 2; [2,5) offline -> 0; [5,8) at 0.5 -> 1.5;
  // [8,10) at 2 -> 4.
  EXPECT_NEAR(p.online_work_between(0.0, 10.0), 7.5, 1e-12);
  EXPECT_NEAR(p.online_work_between(3.0, 6.0), 0.5, 1e-12);
}

TEST(AvailabilityProfile, RunWorkSolvesPiecewiseCompletion) {
  const AvailabilityProfile p({{4.0, true, 0.5}});
  // 3 units from t=2: [2,4) yields 2 at speed 1, the last unit takes 2s at
  // speed 0.5 -> completion at 6.
  const auto full = p.run_work(2.0, 3.0, 1e18);
  EXPECT_TRUE(full.completed);
  EXPECT_NEAR(full.end, 6.0, 1e-12);

  // Cut at t=5: 2 + 0.5 units done, not complete.
  const auto cut = p.run_work(2.0, 3.0, 5.0);
  EXPECT_FALSE(cut.completed);
  EXPECT_NEAR(cut.work_done, 2.5, 1e-12);
}

TEST(AvailabilityProfile, RejectsMalformedSpans) {
  EXPECT_THROW(AvailabilityProfile({{-1.0, true, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(AvailabilityProfile({{2.0, true, 1.0}, {2.0, false, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(AvailabilityProfile({{1.0, true, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(AvailabilityProfile({{1.0, true, -2.0}}),
               std::invalid_argument);
}

// --------------------------------------------------------- generators ------

TEST(GenerateAvailability, AlwaysIsTrivialAndDrawsNothing) {
  util::Rng rng(42);
  const auto profiles = generate_availability(
      AvailabilityModel::kAlways, 4, 10.0, 0.2, 100.0, rng);
  ASSERT_EQ(profiles.size(), 4u);
  for (const AvailabilityProfile& p : profiles) EXPECT_TRUE(p.trivial());
  // The rng stream must be untouched: the next draw equals a fresh rng's.
  util::Rng fresh(42);
  EXPECT_DOUBLE_EQ(rng.uniform(0.0, 1.0), fresh.uniform(0.0, 1.0));
}

TEST(GenerateAvailability, ChurnAndRareOutageAlwaysEndOnline) {
  for (AvailabilityModel model :
       {AvailabilityModel::kChurn, AvailabilityModel::kRareOutage}) {
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      util::Rng rng(seed);
      const auto profiles =
          generate_availability(model, 5, 8.0, 0.3, 60.0, rng);
      for (const AvailabilityProfile& p : profiles) {
        if (p.trivial()) continue;
        EXPECT_TRUE(p.spans().back().online)
            << to_string(model) << " seed " << seed
            << ": profile must end online (campaigns must be able to drain)";
        // Down spans pair with their recovery: offline stretches are finite.
        EXPECT_TRUE(p.online_at(1e12));
      }
    }
  }
}

TEST(GenerateAvailability, DriftNeverGoesOfflineAndStaysInBand) {
  util::Rng rng(7);
  const auto profiles = generate_availability(
      AvailabilityModel::kDrift, 3, 5.0, 0.0, 80.0, rng);
  bool saw_shift = false;
  for (const AvailabilityProfile& p : profiles) {
    for (const AvailabilitySpan& s : p.spans()) {
      EXPECT_TRUE(s.online);
      EXPECT_GE(s.speed, 0.5);
      EXPECT_LE(s.speed, 1.5);
      saw_shift = true;
    }
  }
  EXPECT_TRUE(saw_shift) << "an 80s horizon at mtbf 5 should drift";
}

TEST(GenerateAvailability, DeterministicInSeedAndValidatesArguments) {
  util::Rng a(9), b(9);
  const auto pa = generate_availability(AvailabilityModel::kChurn, 4, 6.0,
                                        0.25, 50.0, a);
  const auto pb = generate_availability(AvailabilityModel::kChurn, 4, 6.0,
                                        0.25, 50.0, b);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t j = 0; j < pa.size(); ++j) {
    ASSERT_EQ(pa[j].spans().size(), pb[j].spans().size());
    for (std::size_t i = 0; i < pa[j].spans().size(); ++i) {
      EXPECT_DOUBLE_EQ(pa[j].spans()[i].begin, pb[j].spans()[i].begin);
      EXPECT_EQ(pa[j].spans()[i].online, pb[j].spans()[i].online);
      EXPECT_DOUBLE_EQ(pa[j].spans()[i].speed, pb[j].spans()[i].speed);
    }
  }

  util::Rng rng(1);
  EXPECT_THROW(generate_availability(AvailabilityModel::kChurn, 0, 1.0, 0.1,
                                     10.0, rng),
               std::invalid_argument);
  EXPECT_THROW(generate_availability(AvailabilityModel::kChurn, 2, 0.0, 0.1,
                                     10.0, rng),
               std::invalid_argument);
  EXPECT_THROW(generate_availability(AvailabilityModel::kChurn, 2, 1.0, 0.95,
                                     10.0, rng),
               std::invalid_argument);
  EXPECT_THROW(generate_availability(AvailabilityModel::kChurn, 2, 1.0, 0.1,
                                     0.0, rng),
               std::invalid_argument);
}

TEST(GenerateAvailability, RefusesRealizationsTooLargeToMaterialize) {
  // A 3-slave, 50-task churn grid at mtbf_tasks = 1e-7: the campaign asks
  // for horizon / mtbf = 4 * 50 / 1e-7 transitions per slave, which must
  // end in a message naming the values, not in std::bad_alloc.
  util::Rng rng(1);
  try {
    generate_availability(AvailabilityModel::kChurn, 3, 1e-7, 0.1, 200.0,
                          rng);
    ADD_FAILURE() << "a 6e9-transition realization was accepted";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("3 * 200 / 1e-07"), std::string::npos) << what;
    EXPECT_NE(what.find("exceeds"), std::string::npos) << what;
  }
  EXPECT_THROW(generate_availability(AvailabilityModel::kDrift, 3, 1e-7, 0.1,
                                     200.0, rng),
               std::invalid_argument);
  // The limit sits on num_slaves * horizon / mtbf itself, not per slave.
  const double per_slave = kMaxExpectedTransitions / 4.0;
  EXPECT_THROW(generate_availability(AvailabilityModel::kChurn, 5, 1.0, 0.1,
                                     per_slave, rng),
               std::invalid_argument);
  // Rare outages draw at most two spans per slave whatever the mtbf.
  const auto rare = generate_availability(AvailabilityModel::kRareOutage, 3,
                                          1e-7, 0.1, 200.0, rng);
  EXPECT_EQ(rare.size(), 3u);
}

}  // namespace
}  // namespace msol::platform

namespace msol::core {
namespace {

platform::Platform two_slaves() {
  return platform::Platform(
      {platform::SlaveSpec{0.1, 1.0}, platform::SlaveSpec{0.1, 1.0}});
}

EngineOptions with_profiles(
    std::vector<platform::AvailabilityProfile> profiles) {
  EngineOptions options;
  options.enable_trace = true;
  options.availability = std::move(profiles);
  return options;
}

// ------------------------------------------------------ engine semantics ----

TEST(EngineAvailability, TrivialProfilesKeepDisabledPathAndZeroStats) {
  const platform::Platform plat = two_slaves();
  const Workload work = Workload::all_at_zero(10);

  const auto ls_a = algorithms::make_scheduler("LS", 10);
  const auto ls_b = algorithms::make_scheduler("LS", 10);
  DisruptionStats stats;
  const Schedule with_trivial = simulate(
      plat, work, *ls_a,
      with_profiles(std::vector<platform::AvailabilityProfile>(2)), &stats);
  const Schedule without = simulate(plat, work, *ls_b, {}, nullptr);

  EXPECT_EQ(stats.redispatches, 0);
  EXPECT_EQ(stats.disruptive_outages, 0);
  EXPECT_DOUBLE_EQ(stats.lost_work, 0.0);
  ASSERT_EQ(with_trivial.size(), without.size());
  for (int i = 0; i < without.size(); ++i) {
    EXPECT_EQ(with_trivial.at(i).slave, without.at(i).slave);
    EXPECT_EQ(with_trivial.at(i).comp_end, without.at(i).comp_end);
  }
}

TEST(EngineAvailability, OutageAbortsInFlightTaskAndRedispatchesIt) {
  // Slave 0 dies at t=1.5 and returns at t=20; its in-flight task (and
  // anything queued on it) must come back as pending and finish elsewhere
  // (or later), with the partial compute counted as lost work.
  const platform::Platform plat = two_slaves();
  std::vector<platform::AvailabilityProfile> profiles(2);
  profiles[0] = platform::AvailabilityProfile(
      {{1.5, false, 1.0}, {20.0, true, 1.0}});

  const Workload work = Workload::all_at_zero(6);
  const auto ls = algorithms::make_scheduler("LS", 10);
  const EngineOptions options = with_profiles(profiles);

  DisruptionStats stats;
  const Schedule schedule = simulate(plat, work, *ls, options, &stats);

  EXPECT_EQ(schedule.size(), 6) << "every task must eventually complete";
  EXPECT_GT(stats.redispatches, 0);
  EXPECT_EQ(stats.disruptive_outages, 1);
  EXPECT_GT(stats.lost_work, 0.0);
  validate_or_throw(plat, work, schedule, options);
  // No surviving record may compute on slave 0 inside its dead window.
  for (const TaskRecord& r : schedule.records()) {
    if (r.slave == 0) {
      EXPECT_TRUE(r.comp_end <= 1.5 + kTimeEps ||
                  r.comp_start >= 20.0 - kTimeEps)
          << "task " << r.task << " computes on a dead slave";
    }
  }
}

TEST(EngineAvailability, SpeedDriftRescalesRemainingWork) {
  // One slave at speed 1 until t=1, then 0.5: a unit task starting at
  // t=0.1 does 0.9 units by the shift and the rest at half speed.
  const platform::Platform plat(
      {platform::SlaveSpec{0.1, 1.0}});
  std::vector<platform::AvailabilityProfile> profiles(1);
  profiles[0] = platform::AvailabilityProfile({{1.0, true, 0.5}});

  const Workload work = Workload::all_at_zero(1);
  const auto ls = algorithms::make_scheduler("LS", 1);
  const Schedule schedule =
      simulate(plat, work, *ls, with_profiles(profiles));

  ASSERT_EQ(schedule.size(), 1);
  const TaskRecord& r = schedule.at(0);
  EXPECT_NEAR(r.comp_start, 0.1, 1e-12);
  // 0.9 units done by t=1.0; remaining 0.1 at speed 0.5 takes 0.2s.
  EXPECT_NEAR(r.comp_end, 1.2, 1e-12);
  validate_or_throw(plat, work, schedule, with_profiles(profiles));
}

TEST(EngineAvailability, EveryRegistryPolicySkipsOfflineSlaves) {
  // Slave 1 is dead for the whole campaign (it recovers long after the
  // last task could drain); every policy must route around it.
  const platform::Platform plat = two_slaves();
  std::vector<platform::AvailabilityProfile> profiles(2);
  profiles[1] = platform::AvailabilityProfile(
      {{0.0, false, 1.0}, {1e6, true, 1.0}});

  const Workload work = Workload::all_at_zero(8);
  std::vector<std::string> names = algorithms::extended_algorithm_names();
  names.push_back("RLS");
  names.push_back("LS-K3");
  for (const std::string& name : names) {
    const auto policy = algorithms::make_scheduler(name, 8);
    DisruptionStats stats;
    const Schedule schedule =
        simulate(plat, work, *policy, with_profiles(profiles), &stats);
    ASSERT_EQ(schedule.size(), 8) << name;
    for (const TaskRecord& r : schedule.records()) {
      EXPECT_EQ(r.slave, 0) << name << " used the offline slave";
    }
    EXPECT_EQ(stats.redispatches, 0) << name;
  }
}

TEST(EngineAvailability, CommittingToAnOfflineSlaveThrows) {
  const platform::Platform plat = two_slaves();
  std::vector<platform::AvailabilityProfile> profiles(2);
  profiles[1] = platform::AvailabilityProfile(
      {{0.0, false, 1.0}, {1e6, true, 1.0}});

  algorithms::Replay replay({1});  // blindly targets the dead slave
  OnePortEngine engine(plat, replay, with_profiles(profiles));
  engine.load(Workload::all_at_zero(1));
  EXPECT_THROW(engine.run_to_completion(), std::logic_error);
}

TEST(EngineAvailability, ObservablesReportThePresentOnly) {
  const platform::Platform plat = two_slaves();
  std::vector<platform::AvailabilityProfile> profiles(2);
  profiles[0] = platform::AvailabilityProfile(
      {{1.0, false, 1.0}, {2.0, true, 0.5}});

  const auto ls = algorithms::make_scheduler("LS", 4);
  ls->reset();
  OnePortEngine engine(plat, *ls, with_profiles(profiles));

  engine.run_until(0.5);
  EXPECT_TRUE(engine.is_available(0));
  EXPECT_DOUBLE_EQ(engine.slave_state().speed[0], 1.0);

  engine.run_until(1.5);
  EXPECT_FALSE(engine.is_available(0));
  EXPECT_EQ(engine.slave_state().online[0], 0);

  engine.run_until(3.0);
  EXPECT_TRUE(engine.is_available(0));
  EXPECT_DOUBLE_EQ(engine.slave_state().speed[0], 0.5);
  EXPECT_TRUE(engine.is_available(1));
  EXPECT_DOUBLE_EQ(engine.slave_state().speed[1], 1.0);
}

TEST(EngineAvailability, RunUntilAppliesTransitionsAtAndWithinEpsOfT) {
  // run_until(t) leaves every transition up to t + kTimeEps applied: slave
  // 0 goes down exactly at t, slave 1 within kTimeEps after t, and slave
  // 2's transition 2 * kTimeEps after t must still lie in the future. The
  // engine is driven there from 0 and, in a second engine, through an
  // earlier stop within kTimeEps before t.
  const platform::Platform plat(std::vector<platform::SlaveSpec>(
      3, platform::SlaveSpec{0.1, 1.0}));
  const Time t = 1.0;
  std::vector<platform::AvailabilityProfile> profiles(3);
  profiles[0] = platform::AvailabilityProfile({{t, false, 1.0}});
  profiles[1] = platform::AvailabilityProfile({{t + 0.5 * kTimeEps, false,
                                                1.0}});
  profiles[2] = platform::AvailabilityProfile({{t + 2.0 * kTimeEps, false,
                                                1.0}});
  for (const std::vector<Time>& stops :
       {std::vector<Time>{t}, std::vector<Time>{t - 0.5 * kTimeEps, t}}) {
    const auto ls = algorithms::make_scheduler("LS", 1);
    ls->reset();
    OnePortEngine engine(plat, *ls, with_profiles(profiles));
    for (const Time stop : stops) engine.run_until(stop);
    EXPECT_EQ(engine.now(), t);
    EXPECT_FALSE(engine.is_available(0));
    EXPECT_FALSE(engine.is_available(1));
    EXPECT_TRUE(engine.is_available(2));
  }
}

TEST(EngineAvailability, ReusedEngineMatchesFreshUnderChurn) {
  // reset() must scrub the availability state too: run a churny case in a
  // reused engine after an unrelated case and compare to a fresh engine.
  const platform::Platform plat = two_slaves();
  std::vector<platform::AvailabilityProfile> profiles(2);
  profiles[0] = platform::AvailabilityProfile(
      {{0.7, false, 1.0}, {1.4, true, 1.3}, {3.0, false, 1.0},
       {3.6, true, 1.0}});
  profiles[1] = platform::AvailabilityProfile({{2.0, true, 0.6}});

  util::Rng rng(3);
  const Workload warmup = Workload::poisson(12, 2.0, rng);
  const Workload work = Workload::poisson(15, 3.0, rng);
  const EngineOptions options = with_profiles(profiles);

  const auto p1 = algorithms::make_scheduler("LS", 4);
  const auto p2 = algorithms::make_scheduler("LS", 4);
  const auto p3 = algorithms::make_scheduler("LS", 4);

  OnePortEngine reused(plat, *p1, {});
  reused.load(warmup);
  reused.run_to_completion();
  reused.reset(plat, *p2, options);
  reused.load(work);
  reused.run_to_completion();

  OnePortEngine fresh(plat, *p3, options);
  fresh.load(work);
  fresh.run_to_completion();

  ASSERT_EQ(reused.schedule().size(), fresh.schedule().size());
  for (int i = 0; i < fresh.schedule().size(); ++i) {
    EXPECT_EQ(reused.schedule().at(i).task, fresh.schedule().at(i).task);
    EXPECT_EQ(reused.schedule().at(i).slave, fresh.schedule().at(i).slave);
    EXPECT_EQ(reused.schedule().at(i).comp_end,
              fresh.schedule().at(i).comp_end);
  }
  EXPECT_EQ(reused.disruption().redispatches,
            fresh.disruption().redispatches);
  EXPECT_EQ(reused.now(), fresh.now());
}

/// Task ids of the kRequeue events, in trace order.
std::vector<TaskId> requeued_tasks(const Trace& trace) {
  std::vector<TaskId> out;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceEvent::Kind::kRequeue) out.push_back(e.task);
  }
  return out;
}

TEST(EngineAvailability, SimultaneousOutagesRequeueBySlaveThenCommitOrder) {
  // Slaves 1-3 each hold two committed tasks (one computing, one queued)
  // when all three go offline in one engine step: once at exactly t=1, and
  // once spread within kTimeEps, so the earliest-due slave (2) is not the
  // lowest id. Re-queues must come out by ascending slave, then in commit
  // order on each slave, whatever order the transitions fall due in.
  const platform::Platform plat(std::vector<platform::SlaveSpec>(
      4, platform::SlaveSpec{0.1, 1.0}));
  const Workload work = Workload::all_at_zero(9);
  for (const double spread : {0.0, 0.4 * kTimeEps}) {
    std::vector<platform::AvailabilityProfile> profiles(4);
    const double down[] = {0.0, 1.0 + spread, 1.0 - spread, 1.0};
    for (std::size_t j = 1; j < 4; ++j) {
      profiles[j] = platform::AvailabilityProfile(
          {{down[j], false, 1.0}, {50.0, true, 1.0}});
    }
    // Tasks 0-5 go round-robin to slaves 3, 1, 2; tasks 6-8 and every
    // re-queued task go to slave 0, which never fails.
    std::vector<SlaveId> plan = {3, 1, 2, 3, 1, 2};
    plan.resize(15, 0);
    algorithms::Replay replay(plan);
    const EngineOptions options = with_profiles(profiles);
    OnePortEngine engine(plat, replay, options);
    engine.load(work);
    engine.run_to_completion();

    const std::vector<TaskId> expected = {1, 4, 2, 5, 0, 3};
    EXPECT_EQ(requeued_tasks(engine.trace()), expected) << "spread " << spread;
    EXPECT_EQ(engine.disruption().redispatches, 6);
    EXPECT_EQ(engine.disruption().disruptive_outages, 3);
    // The computing task of each slave had run 0.8, 0.7 and 0.9 units.
    EXPECT_NEAR(engine.disruption().lost_work, 2.4, 1e-8);
    validate_or_throw(plat, work, engine.schedule(), options);
  }
}

TEST(EngineAvailability, TwoSpansDueInOneStepApplyInOrder) {
  // Slave 0 goes down and comes back at half speed within one kTimeEps
  // step, then speeds up at t=5: both near-coincident spans apply in order
  // (the down transition still flushes the slave), and the slave's later
  // span stays indexed.
  const platform::Platform plat = two_slaves();
  std::vector<platform::AvailabilityProfile> profiles(2);
  profiles[0] = platform::AvailabilityProfile({{1.0, false, 1.0},
                                               {1.0 + 0.4 * kTimeEps, true,
                                                0.5},
                                               {5.0, true, 2.0}});
  algorithms::Replay replay({0, 0, 1, 1, 1});
  const EngineOptions options = with_profiles(profiles);
  OnePortEngine engine(plat, replay, options);
  const Workload work = Workload::all_at_zero(3);
  engine.load(work);

  engine.run_until(1.5);
  EXPECT_TRUE(engine.is_available(0));
  EXPECT_DOUBLE_EQ(engine.slave_state().speed[0], 0.5);
  EXPECT_EQ(engine.disruption().redispatches, 2);
  EXPECT_EQ(engine.disruption().disruptive_outages, 1);
  std::vector<TraceEvent::Kind> transitions;
  for (const TraceEvent& e : engine.trace().events()) {
    if (e.kind == TraceEvent::Kind::kSlaveDown ||
        e.kind == TraceEvent::Kind::kSlaveUp ||
        e.kind == TraceEvent::Kind::kSpeedShift) {
      transitions.push_back(e.kind);
    }
  }
  const std::vector<TraceEvent::Kind> expected = {
      TraceEvent::Kind::kSlaveDown, TraceEvent::Kind::kSlaveUp};
  EXPECT_EQ(transitions, expected);

  engine.run_until(6.0);
  EXPECT_DOUBLE_EQ(engine.slave_state().speed[0], 2.0);
  engine.run_to_completion();
  validate_or_throw(plat, work, engine.schedule(), options);
}

TEST(EngineAvailability, TransitionAtAReleaseInstantAppliesFirst) {
  // The only task is released at t=2, exactly when fast slave 0 changes
  // state. Transitions apply before releases at one instant, so LS sees
  // the slave's new state: a dying slave 0 loses the task to slow slave 1,
  // a recovering one wins it.
  const platform::Platform plat(
      {platform::SlaveSpec{0.1, 1.0}, platform::SlaveSpec{0.1, 10.0}});
  const Workload work = Workload::from_releases({2.0});
  struct Case {
    std::vector<platform::AvailabilitySpan> spans;
    SlaveId chosen;
  };
  const Case cases[] = {
      {{{2.0, false, 1.0}, {9.0, true, 1.0}}, 1},
      {{{0.0, false, 1.0}, {2.0, true, 1.0}}, 0},
  };
  for (const Case& c : cases) {
    std::vector<platform::AvailabilityProfile> profiles(2);
    profiles[0] = platform::AvailabilityProfile(c.spans);
    const auto ls = algorithms::make_scheduler("LS", 1);
    ls->reset();
    const EngineOptions options = with_profiles(profiles);
    OnePortEngine engine(plat, *ls, options);
    engine.load(work);
    engine.run_to_completion();
    ASSERT_EQ(engine.schedule().size(), 1);
    EXPECT_EQ(engine.schedule().at(0).slave, c.chosen);
    EXPECT_DOUBLE_EQ(engine.schedule().at(0).send_start, 2.0);
    validate_or_throw(plat, work, engine.schedule(), options);
  }
}

TEST(EngineAvailability, MismatchedProfileCountThrows) {
  const platform::Platform plat = two_slaves();
  const auto ls = algorithms::make_scheduler("LS", 1);
  std::vector<platform::AvailabilityProfile> one(1);
  EXPECT_THROW(OnePortEngine(plat, *ls, with_profiles(one)),
               std::invalid_argument);
}

// ------------------------------------------------------------- campaign ----

TEST(CampaignAvailability, ChurnCampaignIsDeterministicAndCounted) {
  experiments::CampaignConfig config;
  config.num_platforms = 2;
  config.num_tasks = 60;
  config.num_slaves = 3;
  config.algorithms = {"LS", "SRPT"};
  config.avail = platform::AvailabilityModel::kChurn;
  config.mtbf_tasks = 15.0;
  config.outage_frac = 0.3;

  const experiments::CampaignResult a = experiments::run_campaign(config);
  const experiments::CampaignResult b = experiments::run_campaign(config);
  ASSERT_EQ(a.algorithms.size(), b.algorithms.size());
  double total_redispatches = 0.0;
  for (std::size_t i = 0; i < a.algorithms.size(); ++i) {
    EXPECT_EQ(a.algorithms[i].makespan.mean, b.algorithms[i].makespan.mean);
    EXPECT_EQ(a.algorithms[i].redispatches.mean,
              b.algorithms[i].redispatches.mean);
    EXPECT_EQ(a.algorithms[i].lost_work.mean, b.algorithms[i].lost_work.mean);
    total_redispatches += a.algorithms[i].redispatches.mean;
  }
  // Aggressive churn (30% downtime, short mtbf) across 2 platforms and 2
  // algorithms should disturb at least one run.
  EXPECT_GT(total_redispatches, 0.0);
}

TEST(CampaignAvailability, AlwaysModelReproducesLegacyResultsExactly) {
  // The avail knob must be a pure extension: a kAlways campaign draws the
  // same platforms/workloads as one that predates the feature, and its
  // disruption summaries are identically zero.
  experiments::CampaignConfig config;
  config.num_platforms = 2;
  config.num_tasks = 50;
  config.algorithms = {"LS"};
  const experiments::CampaignResult r = experiments::run_campaign(config);
  ASSERT_EQ(r.algorithms.size(), 1u);
  EXPECT_DOUBLE_EQ(r.algorithms[0].redispatches.mean, 0.0);
  EXPECT_DOUBLE_EQ(r.algorithms[0].redispatches.max, 0.0);
  EXPECT_DOUBLE_EQ(r.algorithms[0].lost_work.mean, 0.0);
}

}  // namespace
}  // namespace msol::core
