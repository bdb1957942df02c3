#pragma once

#include <deque>
#include <optional>
#include <vector>

#include "core/engine.hpp"  // SlowdownWindow, EngineOptions, slowdown_factor_at
#include "core/engine_view.hpp"
#include "core/scheduler.hpp"

namespace msol::core {

/// The pre-calendar one-port engine, retained verbatim as the semantic
/// oracle for the event-driven OnePortEngine. It lives in the test-only
/// oracle library (tests/oracles/): only test executables link it.
///
/// Its decision loop re-derives every wake-up by scanning all ports, all
/// slaves and every per-slave completion list, and commit() locates the
/// chosen task with a linear find — O(slaves * log tasks) per step and
/// O(pending) per commitment. That is exactly why it was replaced on the
/// hot path, and exactly why it is kept: the scans are simple enough to
/// audit by eye, share no event plumbing with the calendar engine, and
/// define the model's semantics.
/// tests/test_engine_diff.cpp runs every registered scheduler against both
/// engines and requires bit-identical schedules and traces; do not
/// "optimize" this class.
class ReferenceEngine final : public EngineView {
 public:
  ReferenceEngine(platform::Platform platform, OnlineScheduler& scheduler,
                  EngineOptions options = {});

  void load(const Workload& workload);
  TaskId inject_task(TaskSpec spec);
  void run_until(Time t);
  void run_to_completion();

  /// --- EngineView ---------------------------------------------------------

  Time now() const override { return now_; }
  const platform::Platform& platform() const override { return platform_; }
  Time port_free_at() const override;
  int tasks_in_system(SlaveId j) const override;
  TaskId pending_front() const override;
  std::vector<TaskId> pending_tasks() const override;
  int pending_count() const override {
    return static_cast<int>(pending_.size());
  }
  int total_tasks() const override { return static_cast<int>(tasks_.size()); }
  int completed_or_committed() const override { return committed_; }
  const TaskSpec& task_spec(TaskId i) const override;
  std::optional<SlaveId> assignment_of(TaskId task) const override;
  /// Dense state over the platform's c_j / p_j arrays and the raw
  /// busy-until array. `online` and `speed` stay null: this engine supports
  /// no availability, so every slave is online at unit speed.
  SlaveStateView slave_state() const override;
  const Schedule& schedule() const override { return schedule_; }
  const Trace& trace() const override { return trace_; }

 private:
  struct TaskState {
    TaskSpec spec;
    bool released = false;
    bool committed = false;
    SlaveId slave = -1;
  };

  void process_releases();
  bool try_decide();
  void commit(TaskId task, SlaveId slave);
  /// Earliest event strictly after now() (release, port free, slave free),
  /// found by scanning everything; or nullopt when nothing is scheduled.
  std::optional<Time> next_wakeup() const;

  platform::Platform platform_;
  OnlineScheduler& scheduler_;
  EngineOptions options_;

  Time now_ = 0.0;
  std::vector<TaskState> tasks_;
  std::vector<TaskId> release_order_;
  std::size_t next_release_idx_ = 0;
  std::deque<TaskId> pending_;
  std::vector<Time> port_busy_until_;
  std::vector<Time> slave_ready_;
  std::vector<std::vector<Time>> slave_comp_ends_;
  int committed_ = 0;
  std::optional<Time> scheduler_wake_;
  Schedule schedule_;
  Trace trace_;
};

}  // namespace msol::core
