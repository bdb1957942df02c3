#include <gtest/gtest.h>

#include "algorithms/replay.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "platform/platform.hpp"

namespace msol::core {
namespace {

using algorithms::Replay;
using platform::Platform;
using platform::SlaveSpec;

/// Always sends the front pending task to a fixed slave.
class ToSlave : public OnlineScheduler {
 public:
  explicit ToSlave(SlaveId j) : slave_(j) {}
  std::string name() const override { return "ToSlave"; }
  Decision decide(const EngineView& engine) override {
    return Assign{engine.pending_front(), slave_};
  }

 private:
  SlaveId slave_;
};

/// Defers until `wait_until`, then behaves like ToSlave(0). Exercises the
/// proofs' "nothing forces A to send as soon as possible".
class LazySender : public OnlineScheduler {
 public:
  explicit LazySender(Time wait_until) : wait_until_(wait_until) {}
  std::string name() const override { return "LazySender"; }
  Decision decide(const EngineView& engine) override {
    if (engine.now() + kTimeEps < wait_until_) return Defer{};
    return Assign{engine.pending_front(), 0};
  }

 private:
  Time wait_until_;
};

/// Defers forever; used to check deadlock detection.
class Stubborn : public OnlineScheduler {
 public:
  std::string name() const override { return "Stubborn"; }
  Decision decide(const EngineView&) override { return Defer{}; }
};

Platform two_slaves() {
  return Platform({SlaveSpec{1.0, 3.0}, SlaveSpec{2.0, 5.0}});
}

TEST(Engine, SingleTaskTrajectory) {
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(1));
  engine.run_to_completion();
  ASSERT_EQ(engine.schedule().size(), 1);
  const TaskRecord& r = engine.schedule().at(0);
  EXPECT_DOUBLE_EQ(r.send_start, 0.0);
  EXPECT_DOUBLE_EQ(r.send_end, 1.0);
  EXPECT_DOUBLE_EQ(r.comp_start, 1.0);
  EXPECT_DOUBLE_EQ(r.comp_end, 4.0);
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

TEST(Engine, PortSerializesSends) {
  ToSlave policy(1);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(3));
  engine.run_to_completion();
  const Schedule& s = engine.schedule();
  // Sends at [0,2], [2,4], [4,6]; computes chain on slave 1.
  EXPECT_DOUBLE_EQ(s.at(1).send_start, 2.0);
  EXPECT_DOUBLE_EQ(s.at(2).send_start, 4.0);
  EXPECT_DOUBLE_EQ(s.at(0).comp_end, 7.0);
  EXPECT_DOUBLE_EQ(s.at(1).comp_end, 12.0);
  EXPECT_DOUBLE_EQ(s.at(2).comp_end, 17.0);
}

TEST(Engine, SlaveQueuesBehindOwnWork) {
  Replay policy({0, 0});
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(2));
  engine.run_to_completion();
  const Schedule& s = engine.schedule();
  // Task 1 arrives at 2 but slave 0 computes task 0 until 4.
  EXPECT_DOUBLE_EQ(s.at(1).send_end, 2.0);
  EXPECT_DOUBLE_EQ(s.at(1).comp_start, 4.0);
  EXPECT_DOUBLE_EQ(s.at(1).comp_end, 7.0);
}

TEST(Engine, MasterWaitsForReleases) {
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::from_releases({5.0}));
  engine.run_to_completion();
  EXPECT_DOUBLE_EQ(engine.schedule().at(0).send_start, 5.0);
  EXPECT_DOUBLE_EQ(engine.schedule().at(0).comp_end, 9.0);
}

TEST(Engine, DeferDelaysTheSend) {
  LazySender policy(2.5);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(1));
  // LazySender wakes on events only; give it one by injecting a later task.
  engine.inject_task(TaskSpec{2.5, 1.0, 1.0});
  engine.run_to_completion();
  EXPECT_DOUBLE_EQ(engine.schedule().find(0)->send_start, 2.5);
}

TEST(Engine, WaitUntilWakesWithoutExternalEvents) {
  // A scheduler can stall to an absolute time even on a dead-quiet system.
  class WaitThenSend : public OnlineScheduler {
   public:
    std::string name() const override { return "WaitThenSend"; }
    Decision decide(const EngineView& engine) override {
      if (engine.now() + kTimeEps < 7.5) return WaitUntil{7.5};
      return Assign{engine.pending_front(), 0};
    }
  } policy;
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(1));
  engine.run_to_completion();
  EXPECT_DOUBLE_EQ(engine.schedule().at(0).send_start, 7.5);
}

TEST(Engine, AnAssignmentCancelsAnOutstandingWaitUntil) {
  // WaitUntil{6} at t=0, then an assignment at t=1 (a release woke the
  // scheduler first). The wake-up at 6 must be gone: the next decision that
  // sends is the release at 10, not t=6.
  class WaitThenDefer : public OnlineScheduler {
   public:
    std::string name() const override { return "WaitThenDefer"; }
    Decision decide(const EngineView& engine) override {
      if (engine.now() + kTimeEps < 1.0) return WaitUntil{6.0};
      if (engine.completed_or_committed() == 0 ||
          engine.now() + kTimeEps >= 5.5) {
        return Assign{engine.pending_front(), 0};
      }
      return Defer{};
    }
  } policy;
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::from_releases({0.0, 1.0, 10.0}));
  engine.run_to_completion();
  EXPECT_DOUBLE_EQ(engine.schedule().find(0)->send_start, 1.0);
  EXPECT_DOUBLE_EQ(engine.schedule().find(1)->send_start, 10.0);
}

TEST(Engine, WaitUntilInThePastCannotSpinForever) {
  // Requesting a wake-up at/before now() is treated as a plain Defer; with
  // no other events this surfaces as the deadlock error instead of a spin.
  class BadWaiter : public OnlineScheduler {
   public:
    std::string name() const override { return "BadWaiter"; }
    Decision decide(const EngineView& engine) override {
      if (!asked_) {
        asked_ = true;
        return WaitUntil{engine.now()};
      }
      return Assign{engine.pending_front(), 0};
    }
    void reset() override { asked_ = false; }

   private:
    bool asked_ = false;
  } policy;
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(1));
  EXPECT_THROW(engine.run_to_completion(), std::logic_error);
}

TEST(Engine, DeadlockIsReported) {
  Stubborn policy;
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(1));
  EXPECT_THROW(engine.run_to_completion(), std::logic_error);
}

TEST(Engine, RunUntilDoesNotDecideAtTheProbeInstant) {
  // A task released exactly at the probe time must not be committed when
  // run_until returns: the adversary acts first.
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::from_releases({1.0}));
  engine.run_until(1.0);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  EXPECT_EQ(engine.pending_count(), 1);       // released, visible
  EXPECT_FALSE(engine.send_started(0));       // but not yet committed
  engine.run_to_completion();
  EXPECT_DOUBLE_EQ(engine.schedule().at(0).send_start, 1.0);
}

TEST(Engine, RunUntilResolvesEverythingStrictlyBefore) {
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(2));
  engine.run_until(1.5);
  // First send happened at 0; port freed at 1; second send committed at 1.
  EXPECT_TRUE(engine.send_started(0));
  EXPECT_TRUE(engine.send_started(1));
  EXPECT_DOUBLE_EQ(engine.schedule().at(1).send_start, 1.0);
}

TEST(Engine, InjectRespectsNowAndOrdersByRelease) {
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::from_releases({0.0, 10.0}));
  engine.run_until(2.0);
  EXPECT_THROW(engine.inject_task(TaskSpec{1.0, 1.0, 1.0}),
               std::invalid_argument);
  const TaskId injected = engine.inject_task(TaskSpec{3.0, 1.0, 1.0});
  engine.run_to_completion();
  // The injected task (release 3) is sent before the preloaded release-10 one.
  EXPECT_LT(engine.schedule().find(injected)->send_start,
            engine.schedule().find(1)->send_start);
}

TEST(Engine, AssignmentObservables) {
  ToSlave policy(1);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(1));
  EXPECT_EQ(engine.assignment_of(0), std::nullopt);
  engine.run_to_completion();
  ASSERT_TRUE(engine.assignment_of(0).has_value());
  EXPECT_EQ(*engine.assignment_of(0), 1);
  EXPECT_EQ(engine.assignment_of(99), std::nullopt);
}

TEST(Engine, CompletionEstimateMatchesRealization) {
  Replay policy({1});
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(1));
  // Estimate before any commitment.
  EXPECT_DOUBLE_EQ(engine.completion_if_assigned(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(engine.completion_if_assigned(0, 1), 7.0);
  engine.run_to_completion();
  EXPECT_DOUBLE_EQ(engine.schedule().at(0).comp_end, 7.0);
}

TEST(Engine, SlaveReadyTracksCommittedWork) {
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(1));
  engine.run_until(0.5);
  EXPECT_DOUBLE_EQ(engine.slave_ready_at(0), 4.0);
  EXPECT_DOUBLE_EQ(engine.slave_ready_at(1), 0.5);  // idle => now
  EXPECT_FALSE(engine.slave_free_now(0));
  EXPECT_TRUE(engine.slave_free_now(1));
}

TEST(Engine, TaskSizeFactorsScaleDurations) {
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  engine.inject_task(TaskSpec{0.0, 2.0, 0.5});
  engine.run_to_completion();
  const TaskRecord& r = engine.schedule().at(0);
  EXPECT_DOUBLE_EQ(r.send_end - r.send_start, 2.0);   // 1.0 * 2
  EXPECT_DOUBLE_EQ(r.comp_end - r.comp_start, 1.5);   // 3.0 * 0.5
}

TEST(Engine, UnboundedPortOverlapsSends) {
  EngineOptions options;
  options.port_capacity = 0;  // macro-dataflow ablation mode
  ToSlave policy(1);
  OnePortEngine engine(two_slaves(), policy, options);
  engine.load(Workload::all_at_zero(2));
  engine.run_to_completion();
  const Schedule& s = engine.schedule();
  EXPECT_DOUBLE_EQ(s.at(0).send_start, 0.0);
  EXPECT_DOUBLE_EQ(s.at(1).send_start, 0.0);  // both fire immediately
}

TEST(Engine, TwoPortsAllowTwoConcurrentSends) {
  EngineOptions options;
  options.port_capacity = 2;
  ToSlave policy(1);
  OnePortEngine engine(two_slaves(), policy, options);
  engine.load(Workload::all_at_zero(3));
  engine.run_to_completion();
  const Schedule& s = engine.schedule();
  EXPECT_DOUBLE_EQ(s.at(0).send_start, 0.0);
  EXPECT_DOUBLE_EQ(s.at(1).send_start, 0.0);
  EXPECT_DOUBLE_EQ(s.at(2).send_start, 2.0);  // waits for a free port
}

TEST(Engine, SimulateValidatesAgainstTheModel) {
  Replay policy({0, 1, 0});
  const Platform plat = two_slaves();
  const Workload work = Workload::from_releases({0.0, 0.5, 4.0});
  const Schedule schedule = simulate(plat, work, policy);
  EXPECT_TRUE(validate(plat, work, schedule).empty());
  EXPECT_EQ(schedule.size(), 3);
}

TEST(Engine, RunUntilIntoThePastThrows) {
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  engine.run_until(2.0);
  EXPECT_THROW(engine.run_until(1.0), std::invalid_argument);
}

TEST(Engine, RejectsBadSchedulerChoices) {
  class BadSlave : public OnlineScheduler {
   public:
    std::string name() const override { return "BadSlave"; }
    Decision decide(const EngineView& engine) override {
      return Assign{engine.pending_front(), 99};
    }
  } bad_slave;
  OnePortEngine engine1(two_slaves(), bad_slave);
  engine1.load(Workload::all_at_zero(1));
  EXPECT_THROW(engine1.run_to_completion(), std::logic_error);

  // Each case names a task that is not pending when the scheduler commits
  // it: one out of range, one whose release lies in the future, and one
  // already committed (task 0 goes to slave 0 first, then is chosen again
  // while task 1 waits).
  class FixedTask : public OnlineScheduler {
   public:
    explicit FixedTask(TaskId task) : task_(task) {}
    std::string name() const override { return "FixedTask"; }
    Decision decide(const EngineView&) override { return Assign{task_, 0}; }

   private:
    TaskId task_;
  };
  const struct {
    TaskId task;
    Workload work;
  } cases[] = {
      {42, Workload::all_at_zero(1)},
      {1, Workload::from_releases({0.0, 5.0})},
      {0, Workload::all_at_zero(2)},
  };
  for (const auto& c : cases) {
    FixedTask bad_task(c.task);
    OnePortEngine engine(two_slaves(), bad_task);
    engine.load(c.work);
    EXPECT_THROW(engine.run_to_completion(), std::logic_error) << c.task;
  }
}

TEST(Engine, PendingTasksSnapshotKeepsFifoOrder) {
  LazySender policy(100.0);  // defers, so pending accumulates
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::from_releases({0.0, 1.0, 2.0}));
  engine.inject_task(TaskSpec{2.5, 1.0, 1.0});
  engine.run_until(3.0);
  EXPECT_EQ(engine.pending_tasks(), (std::vector<TaskId>{0, 1, 2, 3}));
  EXPECT_EQ(engine.pending_front(), 0);

  // Committing a task from the middle leaves the others in release order
  // and the front where it was.
  class MiddleOnce : public OnlineScheduler {
   public:
    std::string name() const override { return "MiddleOnce"; }
    Decision decide(const EngineView&) override {
      if (done_) return Defer{};
      done_ = true;
      return Assign{2, 1};
    }

   private:
    bool done_ = false;
  } middle;
  OnePortEngine engine2(two_slaves(), middle);
  engine2.load(Workload::from_releases({0.0, 0.0, 0.0, 0.0}));
  engine2.run_until(1.0);
  EXPECT_EQ(engine2.pending_tasks(), (std::vector<TaskId>{0, 1, 3}));
  EXPECT_EQ(engine2.pending_front(), 0);
  EXPECT_EQ(engine2.pending_count(), 3);
  EXPECT_EQ(engine2.assignment_of(2), std::optional<SlaveId>(1));
  EXPECT_EQ(engine2.assignment_of(0), std::nullopt);
}

TEST(Engine, PendingFrontOnEmptyThrows) {
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  EXPECT_THROW(engine.pending_front(), std::logic_error);
}

TEST(Engine, ResetReusesTheEngineAsIfFreshlyConstructed) {
  // Same scenario through a fresh engine and through an engine that first
  // ran something entirely different (bigger platform, more tasks, other
  // options): byte-identical schedules, or reset() leaks state.
  ToSlave warmup_policy(2);
  EngineOptions warmup_options;
  warmup_options.port_capacity = 3;
  warmup_options.enable_trace = true;
  OnePortEngine reused(
      Platform({SlaveSpec{1.0, 1.0}, SlaveSpec{2.0, 2.0}, SlaveSpec{3.0, 3.0}}),
      warmup_policy, warmup_options);
  reused.load(Workload::all_at_zero(20));
  reused.run_to_completion();

  Replay fresh_policy({0, 1, 0});
  Replay reused_policy({0, 1, 0});
  const Workload work = Workload::from_releases({0.0, 0.5, 4.0});
  OnePortEngine fresh(two_slaves(), fresh_policy);
  fresh.load(work);
  fresh.run_to_completion();

  reused.reset(two_slaves(), reused_policy);
  reused.load(work);
  reused.run_to_completion();

  ASSERT_EQ(reused.schedule().size(), fresh.schedule().size());
  for (int i = 0; i < fresh.schedule().size(); ++i) {
    EXPECT_EQ(reused.schedule().at(i).slave, fresh.schedule().at(i).slave);
    EXPECT_EQ(reused.schedule().at(i).comp_end, fresh.schedule().at(i).comp_end);
  }
  EXPECT_EQ(reused.now(), fresh.now());
  EXPECT_TRUE(reused.trace().empty());  // warmup's enable_trace was dropped
}

TEST(Engine, UseBeforeResetThrows) {
  OnePortEngine inert;
  EXPECT_THROW(inert.load(Workload::all_at_zero(1)), std::logic_error);
  EXPECT_THROW(inert.run_to_completion(), std::logic_error);
}

TEST(Engine, TakeScheduleMovesRecordsOut) {
  ToSlave policy(0);
  OnePortEngine engine(two_slaves(), policy);
  engine.load(Workload::all_at_zero(2));
  engine.run_to_completion();
  const Schedule taken = engine.take_schedule();
  EXPECT_EQ(taken.size(), 2);
  EXPECT_TRUE(engine.schedule().empty());
}

// -------- Schedule metrics ------------------------------------------------

TEST(ScheduleMetrics, AllThreeObjectives) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});   // flow 4
  s.add(TaskRecord{1, 1, 2.0, 2.0, 3.0, 3.0, 8.0});   // flow 6
  EXPECT_DOUBLE_EQ(s.makespan(), 8.0);
  EXPECT_DOUBLE_EQ(s.max_flow(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum_flow(), 10.0);
  EXPECT_DOUBLE_EQ(s.objective(Objective::kMakespan), 8.0);
  EXPECT_DOUBLE_EQ(s.objective(Objective::kMaxFlow), 6.0);
  EXPECT_DOUBLE_EQ(s.objective(Objective::kSumFlow), 10.0);
}

TEST(ScheduleMetrics, FindByTaskId) {
  Schedule s;
  s.add(TaskRecord{7, 0, 0.0, 0.0, 1.0, 1.0, 2.0});
  EXPECT_NE(s.find(7), nullptr);
  EXPECT_EQ(s.find(3), nullptr);
}

}  // namespace
}  // namespace msol::core
