#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "core/engine_view.hpp"
#include "core/event_queue.hpp"
#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "core/trace.hpp"
#include "core/types.hpp"
#include "core/workload.hpp"
#include "platform/availability.hpp"
#include "platform/platform.hpp"

namespace msol::core {

/// Transient background load on a slave: any task *starting* its compute in
/// [begin, end) runs `factor` times slower. Models another user's job or a
/// daemon stealing cycles — the robustness dimension Figure 2 gestures at
/// from the task side, here injected from the platform side.
struct SlowdownWindow {
  SlaveId slave = 0;
  Time begin = 0.0;
  Time end = 0.0;
  /// > 1 slows the slave down, < 1 speeds it up; OnePortEngine::reset
  /// throws std::invalid_argument unless it is finite and > 0.
  double factor = 1.0;
};

/// Multiplicative slowdown applying to a compute that starts at
/// `comp_start` on `slave` (overlapping windows compound).
///
/// Window-edge tolerance is symmetric: the closed `begin` boundary forgives
/// floating-point noise outward (comp_start >= begin - eps is inside), and
/// the open `end` boundary is exact (comp_start < end is inside, comp_start
/// == end is not). The previous `comp_start < end - eps` form shifted the
/// whole window left by eps, silently dropping computes that start within
/// eps *inside* the window's final sliver while admitting ones the same
/// distance *outside* its start.
double slowdown_factor_at(const std::vector<SlowdownWindow>& windows,
                          SlaveId slave, Time comp_start);

/// What one entry of OnePortEngine's delta feed records (see
/// enable_delta_feed()). The feed is the engine's incremental-observer
/// protocol: every event that changes a scheduler-visible observable other
/// than now() is appended, so a subscriber that replays the suffix since its
/// last sync (and re-reads now()/port_free_at(), which advance silently)
/// holds exactly the state a fresh snapshot would capture. An offline
/// transition is itemized too: one kDisrupt for the slave, then one
/// kPendingPush per task it re-queues, in commit order.
enum class DeltaKind : std::uint8_t {
  kPendingPush,  ///< task joined the pending set (release or re-queue)
  kCommit,       ///< task left pending; slave's busy-until advanced to ready
  kSlaveUp,      ///< slave came back online at `speed`
  kSpeedShift,   ///< online slave's speed changed to `speed`
  kDisrupt,      ///< slave went offline; its busy-until reset to `ready`
};

/// One delta-feed entry; which fields are meaningful depends on `kind`.
struct DeltaEvent {
  DeltaKind kind = DeltaKind::kPendingPush;
  TaskId task = -1;    ///< kPendingPush / kCommit
  SlaveId slave = -1;  ///< kCommit / kSlaveUp / kSpeedShift / kDisrupt
  /// kCommit: the slave's new raw busy-until estimate; kDisrupt: the outage
  /// instant, which becomes the slave's busy-until.
  Time ready = 0.0;
  double speed = 1.0;  ///< kSlaveUp / kSpeedShift: the new speed
};

/// Engine knobs.
struct EngineOptions {
  /// Number of simultaneous sends the master may have in flight.
  /// 1 is the paper's one-port model; 0 means unbounded (the macro-dataflow
  /// model the paper argues against, kept for the ablation bench).
  int port_capacity = 1;
  /// Background-load injection; empty = the paper's pristine platforms.
  /// Schedulers are NOT told about these windows — they plan with nominal
  /// (c_j, p_j) and the engine charges the real, degraded durations.
  std::vector<SlowdownWindow> slowdowns;
  /// Per-slave availability timelines (outages + speed drift). Empty, or
  /// all-trivial, keeps the engine on its original closed-form path —
  /// bit-identical to the test-only ReferenceEngine oracle. Non-empty must
  /// have one profile per slave. See the "time-varying availability" block
  /// comment below.
  std::vector<platform::AvailabilityProfile> availability;
  /// Record a decision/event log readable via OnePortEngine::trace().
  bool enable_trace = false;
};

/// What time-varying availability cost a run: how often work had to be
/// redone and how much compute evaporated. All zero on static platforms.
struct DisruptionStats {
  /// Committed tasks flushed back to pending by an offline transition
  /// (each re-dispatch of the same task counts again).
  int redispatches = 0;
  /// Offline transitions that interrupted at least one committed task.
  int disruptive_outages = 0;
  /// Nominal-seconds of partially-finished compute discarded by outages.
  double lost_work = 0.0;
};

/// Event-driven simulator of the one-port master-slave model (Sec 2).
///
/// Semantics, matching the proofs of Sec 3:
///  * a send for task i on slave j occupies one master port for
///    c_j * comm_factor(i), starting no earlier than r_i;
///  * slave j executes arrivals in order, p_j * comp_factor(i) each, and is
///    never idle while it has a received, unexecuted task;
///  * the scheduler is consulted whenever a port is free and a released task
///    is pending, and may Defer (leave the master idle until the next event).
///
/// Decision instants come from an event calendar: slave completions and
/// WaitUntil wake-ups are pushed into an EventQueue (a binary min-heap,
/// O(log n) push and pop) when they become known and consumed lazily, while
/// releases keep their sorted cursor and port frees their capacity-bounded
/// array. Advancing time thus costs O(log n) instead of the
/// O(slaves * log tasks) scan the pre-calendar engine (kept verbatim as the
/// ReferenceEngine oracle in tests/oracles/) performs at every step.
/// The pending set is a bucketed FIFO slot index (dense slot vector with
/// tombstones and per-64-slot live counts), making commit() O(1) where the
/// reference engine pays an O(pending) find + erase, and letting bulk
/// iteration (pending_tasks, the lookahead planners' feed) skip dead
/// regions instead of chasing list pointers. tests/test_engine_diff.cpp
/// proves the two engines produce bit-identical schedules and traces.
///
/// The engine is reusable: reset() rebinds platform/scheduler/options while
/// keeping every internal allocation, so grid sweeps that simulate millions
/// of tasks stop paying per-cell vector growth (simulate() below reuses one
/// engine per thread).
///
/// Adversary support: run_until(t) advances the simulation so that every
/// decision instant strictly before t has been resolved, then parks the
/// clock at t *without* letting the master act at exactly t. An adversary
/// may then observe the committed prefix and inject_task() new releases; the
/// next run call resumes decisions at t with the new information. This is
/// exactly the probe discipline of the paper's lower-bound proofs.
///
/// Time-varying availability (EngineOptions::availability): each slave
/// replays a deterministic profile of outages and speed drift. A min-heap
/// indexed by slave holds each slave's next transition, so a transition
/// costs O(log m) plus the slaves due at that instant, which are applied in
/// ascending slave order. Semantics:
///  * a slave transitioning offline aborts *every* task committed to it and
///    not yet completed (queued, computing, or still on the link): partial
///    compute is discarded (DisruptionStats::lost_work), the tasks rejoin
///    the pending set at the transition instant in commit order
///    (re-dispatch), and the port time their sends consumed stays consumed —
///    the master only learns of the failure when it happens;
///  * a slave coming back online (and any speed change) is a decision
///    instant: deferring schedulers wake up;
///  * compute durations integrate the piecewise speed, so drift rescales
///    the remaining work of an in-flight task;
///  * schedulers observe only the present, through slave_state(): the
///    online flags and current speeds, and ready times that are exact for
///    work that will complete and a current-speed extrapolation for work a
///    future outage will wipe out — outages are never foreseeable;
///  * committing to an offline slave throws std::logic_error (policies must
///    skip offline slaves, deferring when none is available).
/// The schedule keeps exactly one record per task: its successful attempt.
/// With all profiles trivial the engine takes its original closed-form path
/// and stays bit-identical to the ReferenceEngine oracle (test_engine_diff
/// enforces this).
class OnePortEngine final : public EngineView {
 public:
  /// Inert engine; call reset() before any other member.
  OnePortEngine() = default;

  OnePortEngine(platform::Platform platform, OnlineScheduler& scheduler,
                EngineOptions options = {});

  /// Rebinds the engine to a fresh (platform, scheduler, options) triple and
  /// clears all simulation state while retaining internal capacity. A reset
  /// engine is indistinguishable from a newly constructed one (the
  /// differential fuzz suite runs reused-vs-fresh shards to keep it that
  /// way).
  void reset(platform::Platform platform, OnlineScheduler& scheduler,
             EngineOptions options = {});

  /// Loads a whole workload up front (releases may be in the future;
  /// the scheduler still only sees tasks once released).
  void load(const Workload& workload);

  /// Adds one future task; release must be >= now().
  TaskId inject_task(TaskSpec spec);

  /// Advances until every decision strictly before `t` is resolved, then
  /// sets now() == t.
  void run_until(Time t);

  /// Runs until all loaded/injected tasks are completed; now() becomes the
  /// overall completion time. Throws std::logic_error if the scheduler
  /// defers forever (deadlock).
  void run_to_completion();

  /// Moves the committed schedule out (avoids the copy schedule() implies);
  /// the engine's schedule is empty afterwards until the next reset/run.
  Schedule take_schedule();

  /// The options the engine was last reset() with.
  const EngineOptions& options() const { return options_; }

  /// Re-dispatch / lost-work counters accrued so far; all zero when
  /// availability is disabled.
  const DisruptionStats& disruption() const { return disruption_; }

  /// Monotone revision counter of the load state ShardedEngine's
  /// least-loaded router reads — pending-set membership and master-port
  /// commitments. Bumped on every pending push/erase (which covers commits,
  /// releases, and outage re-queues; the port array only changes inside
  /// commit) and never by pure time advancement, so a cached
  /// (pending_count, port_free_at) snapshot stays exact while the stamp is
  /// unchanged — modulo port_free_at's clamp to now(), which the caller
  /// reapplies as max(cached, current epoch instant).
  std::uint64_t load_stamp() const { return load_stamp_; }

  /// --- delta feed (incremental observers) ---------------------------------
  ///
  /// An epoch log of the engine's observable changes, so a subscriber (the
  /// meta layer's IncrementalProjection) can resync its mirror of the
  /// observables by replaying [its cursor, delta_end()) instead of
  /// re-snapshotting the ready/online/speed arrays and re-walking the
  /// pending set per decision.
  ///
  /// Logging is off until a subscriber opts in (the log would otherwise grow
  /// for nothing); enabling is idempotent and const because subscribers hold
  /// the engine through a const EngineView. reset() disables the feed,
  /// clears the log, and bumps delta_generation() so a stale subscriber of a
  /// reused engine can never mistake the fresh log for its own suffix. The
  /// log is bounded: past a cap the oldest half is dropped and
  /// delta_begin() advances — a subscriber whose cursor fell behind
  /// delta_begin() must rebuild from the regular observables.

  /// Starts recording delta events (no-op when already recording).
  void enable_delta_feed() const { delta_enabled_ = true; }
  /// Bumped by every reset(): events of different generations never splice.
  std::uint64_t delta_generation() const { return delta_gen_; }
  /// Sequence number of the oldest retained event.
  std::uint64_t delta_begin() const { return delta_base_; }
  /// One past the newest event's sequence number.
  std::uint64_t delta_end() const { return delta_base_ + delta_log_.size(); }
  /// Event by sequence number; seq must be in [delta_begin(), delta_end()).
  const DeltaEvent& delta_event(std::uint64_t seq) const {
    return delta_log_[static_cast<std::size_t>(seq - delta_base_)];
  }

  /// --- EngineView (the scheduler/adversary observables) -------------------

  Time now() const override { return now_; }
  const platform::Platform& platform() const override { return *platform_; }
  Time port_free_at() const override;
  int tasks_in_system(SlaveId j) const override;
  TaskId pending_front() const override;
  std::vector<TaskId> pending_tasks() const override;
  int pending_count() const override { return pending_count_; }
  int total_tasks() const override {
    return static_cast<int>(task_specs_.size());
  }
  int completed_or_committed() const override { return committed_; }
  const TaskSpec& task_spec(TaskId i) const override;
  std::optional<SlaveId> assignment_of(TaskId task) const override;
  SlaveStateView slave_state() const override;
  const Schedule& schedule() const override { return schedule_; }
  const Trace& trace() const override { return trace_; }

 private:
  void require_bound() const;
  void process_releases();
  /// Applies every availability transition with instant <= now(): updates
  /// the cached online/speed state, flushes aborted tasks back to pending
  /// on offline transitions, and re-indexes each due slave's next span.
  /// No-op when availability is disabled.
  void process_avail_transitions();
  /// Offline transition of slave j at time t: re-queues every committed,
  /// uncompleted task of j and resets the slave's bookkeeping.
  void handle_offline(SlaveId j, Time t);
  /// Applies one availability span to slave j's cached state: online/speed
  /// update, trace events, and the offline flush.
  void apply_avail_span(std::size_t j, const platform::AvailabilitySpan& span);
  /// One decision round; returns true if an assignment was committed.
  bool try_decide();
  void commit(TaskId task, SlaveId slave);
  /// Earliest event strictly after now() (release, port free, completion,
  /// live wake-up), or nullopt when nothing is scheduled to happen. Prunes
  /// stale calendar entries, hence non-const.
  std::optional<Time> next_wakeup();

  /// Appends to the delta log when the feed is enabled (see
  /// enable_delta_feed()); trims the oldest half at the cap.
  void log_delta(const DeltaEvent& event);

  /// O(1) amortized pending-set maintenance (bucketed slot index).
  void pending_push_back(TaskId id);
  void pending_erase(TaskId id);
  /// Advances pending_begin_ past tombstones (whole dead buckets in one
  /// step) so it lands on the oldest live slot; no-op when the set is empty.
  void pending_advance_begin() const;
  /// Rewrites pending_slots_ with the live ids only (FIFO order preserved);
  /// called when tombstones outnumber live entries.
  void pending_compact();

  std::optional<platform::Platform> platform_;
  OnlineScheduler* scheduler_ = nullptr;
  EngineOptions options_;

  Time now_ = 0.0;
  /// Task state, structure-of-arrays (one vector per field, indexed by task
  /// id): the probe and release hot paths each touch exactly one field of
  /// many tasks, so splitting the old TaskState struct keeps those sweeps
  /// on dense, homogeneous cache lines at fleet scale.
  std::vector<TaskSpec> task_specs_;
  std::vector<std::uint8_t> task_released_;
  std::vector<std::uint8_t> task_committed_;
  std::vector<SlaveId> task_slave_;
  std::vector<TaskId> release_order_;  ///< task ids sorted by release
  std::size_t next_release_idx_ = 0;

  /// Pending = released, unassigned tasks in FIFO release order, stored as
  /// a dense slot vector with tombstones plus a per-64-slot live count:
  /// push appends, erase tombstones in O(1) via the per-task slot index,
  /// and front/iteration skip whole dead buckets in O(1) each — so
  /// pending_tasks() (the plan:sljf*/meta-projection bulk path) costs
  /// O(live + dead/64) instead of a pointer chase over an intrusive list.
  /// Tombstones are compacted away once they outnumber the live entries,
  /// keeping the vector O(live) amortized.
  std::vector<TaskId> pending_slots_;     ///< FIFO slots; -1 = tombstone
  std::vector<TaskId> pending_slot_of_;   ///< per task: its slot, or -1
  std::vector<int> pending_bucket_live_;  ///< live slots per 64-slot bucket
  /// First possibly-live slot; advanced lazily by pending_advance_begin()
  /// (mutable: pending_front() is a const observable).
  mutable std::size_t pending_begin_ = 0;
  int pending_dead_ = 0;
  int pending_count_ = 0;
  std::uint64_t load_stamp_ = 0;  ///< see load_stamp()

  /// --- delta feed state (see the accessor block above) --------------------
  /// mutable: a const subscriber view opts in; recording itself happens
  /// only inside the non-const mutation paths.
  mutable bool delta_enabled_ = false;
  std::vector<DeltaEvent> delta_log_;
  std::uint64_t delta_base_ = 0;
  std::uint64_t delta_gen_ = 0;

  std::vector<Time> port_busy_until_;  ///< size == port_capacity (1+)
  std::vector<Time> slave_ready_;
  /// Per-slave completion instants in commit order (monotone per slave);
  /// supports tasks_in_system() lookups.
  std::vector<std::vector<Time>> slave_comp_ends_;
  int committed_ = 0;

  EventQueue events_;
  /// Generation stamp for WaitUntil calendar entries: bumped by every new
  /// request and by every assignment, so superseded wake-ups are pruned
  /// lazily instead of searched for.
  std::uint32_t wake_gen_ = 0;

  /// --- time-varying availability state (inert when !avail_enabled_) ------
  bool avail_enabled_ = false;
  /// Min-heap (std::greater) of (next span begin, slave), one entry per
  /// slave that still has spans; empty when availability is disabled. Its
  /// top is the earliest pending transition, so process_avail_transitions()
  /// costs O(1) when nothing is due and otherwise O(log m) per due slave
  /// instead of a sweep over all m; next_wakeup() reads it.
  std::vector<std::pair<Time, SlaveId>> avail_heap_;
  std::vector<SlaveId> avail_due_;  ///< the due slaves of one step, reused
  std::vector<std::size_t> next_span_;      ///< per-slave next profile span
  std::vector<std::uint8_t> slave_online_;  ///< cached state at now()
  std::vector<double> slave_speed_;         ///< cached speed at now()
  /// Actual completion instant of slave j's committed chain — diverges from
  /// slave_ready_ (the observable estimate) once a task is doomed.
  std::vector<Time> slave_act_busy_;
  /// True once a committed task on j cannot finish before j's next outage;
  /// everything committed after it is doomed too (serial execution).
  std::vector<std::uint8_t> chain_doomed_;
  /// Doomed tasks per slave in commit order, flushed at the outage.
  std::vector<std::vector<TaskId>> doomed_tasks_;
  /// Partial compute (nominal-seconds) the outage will discard, per slave.
  std::vector<double> doomed_partial_work_;
  DisruptionStats disruption_;

  Schedule schedule_;
  Trace trace_;
};

/// Convenience: run `scheduler` on (platform, workload) to completion and
/// return the resulting schedule. Reuses one engine per thread across calls
/// (falls back to a stack engine on re-entrant use), so sweeps that call it
/// per (cell, platform, algorithm) stop reallocating the simulation state.
/// `disruption`, when non-null, receives the run's re-dispatch/lost-work
/// counters.
Schedule simulate(const platform::Platform& platform, const Workload& workload,
                  OnlineScheduler& scheduler, EngineOptions options = {},
                  DisruptionStats* disruption = nullptr);

}  // namespace msol::core
