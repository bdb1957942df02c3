#pragma once

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <vector>

#include "core/rank_kernel.hpp"
#include "core/schedule.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "core/workload.hpp"
#include "platform/platform.hpp"

namespace msol::core {

/// The read-only simulation state a scheduler (or adversary) may observe:
/// the committed past and the currently released tasks — never future
/// releases, which is what makes the policies on-line.
///
/// The library implements it twice: the OnePortEngine (event-calendar
/// driven, see engine.hpp) and the portfolio's IncrementalProjection. The
/// test-only oracles (tests/oracles/) implement it too, so the differential
/// suites run the *same* policy on an oracle and on the engine and require
/// bit-identical schedules and traces. Every view exposes its per-slave
/// state once, as dense arrays (slave_state()); the per-slave reads
/// (is_available, slave_ready_at, completion_if_assigned) and the batched
/// probes are not virtual, and all of them read those arrays, the probes
/// through the ranking kernel. The scalar probe that checks the kernel
/// lives in the tests (reference_probes in tests/oracles/).
class EngineView {
 public:
  virtual ~EngineView() = default;

  virtual Time now() const = 0;
  virtual const platform::Platform& platform() const = 0;

  /// Earliest time a master port is (or becomes) free, >= now().
  virtual Time port_free_at() const = 0;
  /// True if an unused port exists right now.
  bool port_free_now() const { return port_free_at() <= now() + kTimeEps; }

  /// True when slave j is reachable right now. Engines without time-varying
  /// availability (the paper's static platforms) are always-on. Schedulers
  /// must skip offline slaves: committing to one throws.
  bool is_available(SlaveId j) const { return slave_state_of(j).is_online(j); }

  /// Time slave j finishes everything committed to it so far (its
  /// "ready-time" in the paper's terminology); == now() when idle. Under
  /// time-varying availability this is the master's best estimate: exact
  /// for work that will complete, current-speed extrapolation for work an
  /// unforeseen outage will wipe out.
  Time slave_ready_at(SlaveId j) const {
    return std::max(now(), slave_state_of(j).ready[j]);
  }
  /// True if slave j has no committed work beyond now().
  bool slave_free_now(SlaveId j) const {
    return slave_ready_at(j) <= now() + kTimeEps;
  }
  /// Committed-but-uncompleted tasks on slave j at now() (in flight on the
  /// link, waiting in the slave's queue, or computing). Queue-depth-aware
  /// policies (e.g. ThrottledLs) throttle on this.
  virtual int tasks_in_system(SlaveId j) const = 0;

  /// Oldest released, unassigned task (FIFO release order). Throws
  /// std::logic_error when nothing is pending; the engine only consults a
  /// scheduler while at least one task is pending, so a legal policy never
  /// sees the throw.
  virtual TaskId pending_front() const = 0;
  /// Released, unassigned task ids in FIFO release order. Materializes a
  /// fresh vector — meant for inspection and tests, not per-decision hot
  /// paths (front + count cover the registry policies).
  virtual std::vector<TaskId> pending_tasks() const = 0;
  virtual int pending_count() const = 0;

  virtual int total_tasks() const = 0;
  virtual int completed_or_committed() const = 0;
  virtual const TaskSpec& task_spec(TaskId i) const = 0;

  /// Slave the task was committed to, or nullopt if still unassigned.
  virtual std::optional<SlaveId> assignment_of(TaskId task) const = 0;
  /// True once the send for `task` has begun (commitment implies the send
  /// starts immediately in both engines).
  bool send_started(TaskId task) const {
    return assignment_of(task).has_value();
  }

  /// Structure-of-arrays snapshot of the per-slave state every per-slave
  /// read, probe and ranking component reads (core/rank_kernel.hpp): the
  /// view's only per-slave observation path besides tasks_in_system. Speed
  /// is either its own array or folded into `comp` (the projections do
  /// that). Pointers are valid only until the view's next mutation.
  virtual SlaveStateView slave_state() const = 0;

  /// Estimated completion time of a *hypothetical* commitment of `task` to
  /// slave j made at time now(): the quantity list scheduling minimizes.
  /// Deliberately nominal — blind to injected background load — and using
  /// the slave's current speed only (offline slaves probe as infinity).
  /// One kernel probe, with the send start best_completion_slave uses.
  Time completion_if_assigned(TaskId task, SlaveId j) const {
    const SlaveStateView s = slave_state_of(j);
    const TaskSpec& spec = task_spec(task);
    Time out;
    completion_gather(s, now(), send_start(spec), spec.comm_factor,
                      spec.comp_factor, &j, 1, &out);
    return out;
  }

  /// Batched completion probe: out[i] = completion_if_assigned(task,
  /// slaves[i]) for n candidate slaves. `out` must not overlap `slaves`:
  /// the kernel is compiled on that assumption (`__restrict`), so writing
  /// the probes over the candidate buffer is undefined.
  void completion_if_assigned_batch(TaskId task, const SlaveId* slaves, int n,
                                    Time* out) const {
    const TaskSpec& spec = task_spec(task);
    completion_gather(slave_state(), now(), send_start(spec),
                      spec.comm_factor, spec.comp_factor, slaves, n, out);
  }

  /// The available slave minimizing completion_if_assigned(task, j), with
  /// list scheduling's exact tie-break: a later slave wins only when
  /// strictly better by more than kTimeEps; -1 when no slave is available.
  /// One kernel pass instead of m virtual probes (the send-start term is
  /// loop-invariant): rank_best_completion scans the slaves in vector
  /// blocks, skips each block where no slave beats the incumbent's band, and
  /// returns the sequential scan's slave.
  SlaveId best_completion_slave(TaskId task) const {
    const TaskSpec& spec = task_spec(task);
    return rank_best_completion(slave_state(), now(), send_start(spec),
                                spec.comm_factor, spec.comp_factor);
  }

  /// The committed schedule so far (records are complete at commitment,
  /// since a commitment fully determines the task's trajectory).
  virtual const Schedule& schedule() const = 0;

  /// The decision/event log; empty unless tracing was enabled.
  virtual const Trace& trace() const = 0;

 private:
  /// slave_state(), after checking that j names one of its slaves.
  SlaveStateView slave_state_of(SlaveId j) const {
    const SlaveStateView s = slave_state();
    if (j < 0 || j >= s.m) {
      throw std::out_of_range("EngineView: slave id out of range");
    }
    return s;
  }

  /// When a send committed now for a task with `spec` would start.
  Time send_start(const TaskSpec& spec) const {
    return std::max({now(), port_free_at(), spec.release});
  }
};

}  // namespace msol::core
