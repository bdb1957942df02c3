#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

namespace msol::core {

double slowdown_factor_at(const std::vector<SlowdownWindow>& windows,
                          SlaveId slave, Time comp_start) {
  double factor = 1.0;
  for (const SlowdownWindow& w : windows) {
    // Symmetric edge tolerance: eps forgives noise at the closed begin
    // boundary; the open end boundary is exact (see the header note).
    if (w.slave == slave && comp_start >= w.begin - kTimeEps &&
        comp_start < w.end) {
      factor *= w.factor;
    }
  }
  return factor;
}

OnePortEngine::OnePortEngine(platform::Platform platform,
                             OnlineScheduler& scheduler,
                             EngineOptions options) {
  reset(std::move(platform), scheduler, std::move(options));
}

void OnePortEngine::reset(platform::Platform platform,
                          OnlineScheduler& scheduler, EngineOptions options) {
  if (options.port_capacity < 0) {
    throw std::invalid_argument("OnePortEngine: negative port capacity");
  }
  for (const SlowdownWindow& window : options.slowdowns) {
    if (!std::isfinite(window.factor) || window.factor <= 0.0) {
      throw std::invalid_argument(
          "OnePortEngine: slowdown factor must be finite and > 0");
    }
  }
  platform_.emplace(std::move(platform));
  scheduler_ = &scheduler;
  options_ = std::move(options);

  now_ = 0.0;
  task_specs_.clear();
  task_released_.clear();
  task_committed_.clear();
  task_slave_.clear();
  release_order_.clear();
  next_release_idx_ = 0;
  pending_slots_.clear();
  pending_slot_of_.clear();
  pending_bucket_live_.clear();
  pending_begin_ = 0;
  pending_dead_ = 0;
  pending_count_ = 0;
  load_stamp_ = 0;
  // Subscribers re-opt-in per run: a reset engine must not keep paying for
  // a feed nobody reads, and the generation bump tells any stale subscriber
  // of a reused engine that its cursor belongs to a dead log.
  delta_enabled_ = false;
  delta_log_.clear();
  delta_base_ = 0;
  ++delta_gen_;
  port_busy_until_.clear();
  if (options_.port_capacity > 0) {
    port_busy_until_.assign(static_cast<std::size_t>(options_.port_capacity),
                            0.0);
  }
  const std::size_t m = static_cast<std::size_t>(platform_->size());
  slave_ready_.assign(m, 0.0);
  slave_comp_ends_.resize(m);
  for (std::vector<Time>& ends : slave_comp_ends_) ends.clear();
  committed_ = 0;
  events_.clear();
  wake_gen_ = 0;
  schedule_.clear();
  trace_.clear();

  avail_enabled_ = false;
  next_span_.assign(m, 0);
  slave_online_.assign(m, 1);
  slave_speed_.assign(m, 1.0);
  slave_act_busy_.assign(m, 0.0);
  chain_doomed_.assign(m, 0);
  doomed_tasks_.resize(m);
  for (std::vector<TaskId>& doomed : doomed_tasks_) doomed.clear();
  doomed_partial_work_.assign(m, 0.0);
  disruption_ = DisruptionStats{};
  if (!options_.availability.empty()) {
    if (options_.availability.size() != m) {
      throw std::invalid_argument(
          "OnePortEngine: availability profile count must match slave count");
    }
    for (const platform::AvailabilityProfile& profile :
         options_.availability) {
      if (!profile.trivial()) {
        avail_enabled_ = true;
        break;
      }
    }
  }
  avail_heap_.clear();
  if (avail_enabled_) {
    for (std::size_t j = 0; j < m; ++j) {
      const auto& spans = options_.availability[j].spans();
      std::size_t i = 0;
      while (i < spans.size() && spans[i].begin <= kTimeEps) {
        slave_online_[j] = spans[i].online ? 1 : 0;
        slave_speed_[j] = spans[i].speed;
        ++i;
      }
      next_span_[j] = i;
      if (i < spans.size()) {
        avail_heap_.emplace_back(spans[i].begin, static_cast<SlaveId>(j));
      }
    }
    std::make_heap(avail_heap_.begin(), avail_heap_.end(), std::greater<>());
  }
}

void OnePortEngine::require_bound() const {
  if (scheduler_ == nullptr) {
    throw std::logic_error(
        "OnePortEngine: used before reset() bound a platform and scheduler");
  }
}

void OnePortEngine::load(const Workload& workload) {
  for (const TaskSpec& spec : workload.tasks()) inject_task(spec);
}

TaskId OnePortEngine::inject_task(TaskSpec spec) {
  require_bound();
  if (spec.release < now_ - kTimeEps) {
    throw std::invalid_argument(
        "OnePortEngine: cannot inject a task released in the past");
  }
  spec.release = std::max(spec.release, now_);
  const TaskId id = static_cast<TaskId>(task_specs_.size());
  const Time release = spec.release;
  task_specs_.push_back(std::move(spec));
  task_released_.push_back(0);
  task_committed_.push_back(0);
  task_slave_.push_back(-1);
  pending_slot_of_.push_back(-1);

  // Keep the unprocessed suffix of release_order_ sorted by release time;
  // equal releases keep injection order so adversary task numbering is stable.
  const auto first = release_order_.begin() +
                     static_cast<std::ptrdiff_t>(next_release_idx_);
  const auto pos = std::upper_bound(
      first, release_order_.end(), release,
      [this](Time r, TaskId t) {
        return r < task_specs_[static_cast<std::size_t>(t)].release;
      });
  release_order_.insert(pos, id);
  return id;
}

namespace {
/// Slots per live-count bucket; a power of two so slot -> bucket is a shift.
constexpr std::size_t kPendingBucketShift = 6;  // 64 slots

/// Delta-log cap: past this the oldest half is dropped (subscribers that
/// lag behind delta_begin() rebuild). Sized so a subscriber syncing once
/// per decision never comes close — decisions are at most one commit plus
/// a handful of releases apart.
constexpr std::size_t kDeltaLogCap = 1 << 16;
}  // namespace

void OnePortEngine::log_delta(const DeltaEvent& event) {
  if (!delta_enabled_) return;
  if (delta_log_.size() >= kDeltaLogCap) {
    const std::size_t drop = delta_log_.size() / 2;
    delta_log_.erase(delta_log_.begin(),
                     delta_log_.begin() + static_cast<std::ptrdiff_t>(drop));
    delta_base_ += drop;
  }
  delta_log_.push_back(event);
}

void OnePortEngine::pending_push_back(TaskId id) {
  const std::size_t slot = pending_slots_.size();
  pending_slots_.push_back(id);
  pending_slot_of_[static_cast<std::size_t>(id)] =
      static_cast<TaskId>(slot);
  const std::size_t bucket = slot >> kPendingBucketShift;
  if (bucket >= pending_bucket_live_.size()) {
    pending_bucket_live_.resize(bucket + 1, 0);
  }
  ++pending_bucket_live_[bucket];
  ++pending_count_;
  ++load_stamp_;
  DeltaEvent event;
  event.kind = DeltaKind::kPendingPush;
  event.task = id;
  log_delta(event);
}

void OnePortEngine::pending_erase(TaskId id) {
  const std::size_t slot =
      static_cast<std::size_t>(pending_slot_of_[static_cast<std::size_t>(id)]);
  pending_slots_[slot] = -1;
  pending_slot_of_[static_cast<std::size_t>(id)] = -1;
  --pending_bucket_live_[slot >> kPendingBucketShift];
  --pending_count_;
  ++load_stamp_;
  ++pending_dead_;
  // Amortized compaction: once tombstones outnumber the live entries the
  // vector is rebuilt live-only, so the slot array stays O(live) and every
  // slot is tombstoned at most once between rebuilds.
  if (pending_dead_ > pending_count_ && pending_dead_ >= 64) {
    pending_compact();
  }
}

void OnePortEngine::pending_advance_begin() const {
  const std::size_t n = pending_slots_.size();
  while (pending_begin_ < n) {
    const std::size_t bucket = pending_begin_ >> kPendingBucketShift;
    if (pending_bucket_live_[bucket] == 0) {
      // Whole bucket dead: hop to the next bucket boundary in one step.
      pending_begin_ = (bucket + 1) << kPendingBucketShift;
      continue;
    }
    if (pending_slots_[pending_begin_] >= 0) return;
    ++pending_begin_;
  }
}

void OnePortEngine::pending_compact() {
  std::size_t out = 0;
  for (std::size_t slot = pending_begin_; slot < pending_slots_.size();
       ++slot) {
    const TaskId id = pending_slots_[slot];
    if (id < 0) continue;
    pending_slots_[out] = id;
    pending_slot_of_[static_cast<std::size_t>(id)] =
        static_cast<TaskId>(out);
    ++out;
  }
  pending_slots_.resize(out);
  pending_bucket_live_.assign((out >> kPendingBucketShift) + 1, 0);
  for (std::size_t slot = 0; slot < out; ++slot) {
    ++pending_bucket_live_[slot >> kPendingBucketShift];
  }
  pending_begin_ = 0;
  pending_dead_ = 0;
}

void OnePortEngine::process_releases() {
  while (next_release_idx_ < release_order_.size()) {
    const TaskId id = release_order_[next_release_idx_];
    const std::size_t i = static_cast<std::size_t>(id);
    const Time release = task_specs_[i].release;
    if (release > now_ + kTimeEps) break;
    ++next_release_idx_;
    task_released_[i] = 1;
    pending_push_back(id);
    if (options_.enable_trace) {
      trace_.record(TraceEvent{TraceEvent::Kind::kRelease, release,
                               id, -1, 0.0});
    }
    scheduler_->on_task_released(*this, id);
  }
}

void OnePortEngine::apply_avail_span(std::size_t j,
                                     const platform::AvailabilitySpan& span) {
  const bool was_online = slave_online_[j] != 0;
  const double was_speed = slave_speed_[j];
  slave_online_[j] = span.online ? 1 : 0;
  slave_speed_[j] = span.speed;
  // Delta-log only the *observable* changes: an offline slave's cached
  // speed shifting is invisible (offline slaves probe as infinity whatever
  // their speed; the up-transition event carries the speed that then
  // becomes visible).
  if (was_online != span.online || (span.online && span.speed != was_speed)) {
    DeltaEvent event;
    event.slave = static_cast<SlaveId>(j);
    event.speed = span.speed;
    if (was_online && !span.online) {
      // The offline flush below resets this slave's ready estimate to the
      // outage instant; the tasks it re-queues follow as kPendingPush.
      event.kind = DeltaKind::kDisrupt;
      event.ready = span.begin;
    } else if (!was_online && span.online) {
      event.kind = DeltaKind::kSlaveUp;
    } else {
      event.kind = DeltaKind::kSpeedShift;
    }
    log_delta(event);
  }
  if (options_.enable_trace) {
    const SlaveId slave = static_cast<SlaveId>(j);
    if (was_online && !span.online) {
      trace_.record(TraceEvent{TraceEvent::Kind::kSlaveDown, span.begin,
                               -1, slave, 0.0});
    } else if (!was_online && span.online) {
      trace_.record(TraceEvent{TraceEvent::Kind::kSlaveUp, span.begin, -1,
                               slave, span.speed});
    } else if (span.online && span.speed != was_speed) {
      trace_.record(TraceEvent{TraceEvent::Kind::kSpeedShift, span.begin,
                               -1, slave, span.speed});
    }
  }
  if (was_online && !span.online) {
    handle_offline(static_cast<SlaveId>(j), span.begin);
  }
}

void OnePortEngine::process_avail_transitions() {
  // O(1) on the overwhelmingly common iteration where nothing is due (the
  // heap is empty when availability is disabled); otherwise only the due
  // slaves are touched, O(log m) each.
  const auto later = std::greater<>();
  avail_due_.clear();
  while (!avail_heap_.empty() &&
         avail_heap_.front().first <= now_ + kTimeEps) {
    std::pop_heap(avail_heap_.begin(), avail_heap_.end(), later);
    avail_due_.push_back(avail_heap_.back().second);
    avail_heap_.pop_back();
  }
  // Ascending slave order: re-queues at one instant keep the order of a
  // full sweep over the slaves (then commit order within a slave). The heap
  // holds at most one entry per slave (pushed at start and re-pushed only
  // after its pop), so the ids are distinct and std::sort has no ties whose
  // order could differ between standard libraries.
  std::sort(avail_due_.begin(), avail_due_.end());
  for (const SlaveId slave : avail_due_) {
    const std::size_t j = static_cast<std::size_t>(slave);
    const auto& spans = options_.availability[j].spans();
    std::size_t& i = next_span_[j];
    while (i < spans.size() && spans[i].begin <= now_ + kTimeEps) {
      apply_avail_span(j, spans[i]);
      ++i;
    }
    if (i < spans.size()) {
      avail_heap_.emplace_back(spans[i].begin, slave);
      std::push_heap(avail_heap_.begin(), avail_heap_.end(), later);
    }
  }
}

void OnePortEngine::handle_offline(SlaveId j, Time t) {
  const std::size_t js = static_cast<std::size_t>(j);
  std::vector<TaskId>& doomed = doomed_tasks_[js];
  if (!doomed.empty()) {
    ++disruption_.disruptive_outages;
    disruption_.lost_work += doomed_partial_work_[js];
    // The doomed tasks' observable completion estimates are exactly the
    // tail of this slave's completion list; none of them will happen.
    std::vector<Time>& ends = slave_comp_ends_[js];
    ends.resize(ends.size() - doomed.size());
    for (TaskId id : doomed) {
      task_committed_[static_cast<std::size_t>(id)] = 0;
      task_slave_[static_cast<std::size_t>(id)] = -1;
      --committed_;
      ++disruption_.redispatches;
      pending_push_back(id);
      if (options_.enable_trace) {
        trace_.record(TraceEvent{TraceEvent::Kind::kRequeue, t, id, j, 0.0});
      }
      scheduler_->on_task_released(*this, id);
    }
    doomed.clear();
  }
  doomed_partial_work_[js] = 0.0;
  chain_doomed_[js] = 0;
  slave_ready_[js] = t;
  slave_act_busy_[js] = t;
}

bool OnePortEngine::try_decide() {
  if (pending_count_ == 0 || !port_free_now()) return false;
  const Decision decision = scheduler_->decide(*this);
  if (std::holds_alternative<Defer>(decision)) {
    if (options_.enable_trace) {
      trace_.record(TraceEvent{TraceEvent::Kind::kDefer, now_, -1, -1, 0.0});
    }
    return false;
  }
  if (const auto* wait = std::get_if<WaitUntil>(&decision)) {
    if (options_.enable_trace) {
      trace_.record(TraceEvent{TraceEvent::Kind::kWaitUntil, now_, -1, -1,
                               wait->time});
    }
    if (wait->time > now_ + kTimeEps) {
      events_.push(wait->time, EventKind::kSchedulerWake, ++wake_gen_);
    }
    return false;
  }
  const Assign assign = std::get<Assign>(decision);
  ++wake_gen_;  // an assignment cancels any outstanding WaitUntil request
  commit(assign.task, assign.slave);
  return true;
}

void OnePortEngine::commit(TaskId task_id, SlaveId slave) {
  if (slave < 0 || slave >= platform_->size()) {
    throw std::logic_error("OnePortEngine: scheduler chose an invalid slave");
  }
  const std::size_t js = static_cast<std::size_t>(slave);
  if (avail_enabled_ && slave_online_[js] == 0) {
    throw std::logic_error(
        "OnePortEngine: scheduler chose an offline slave (policies must "
        "skip unavailable slaves)");
  }
  if (task_id < 0 || task_id >= total_tasks() ||
      pending_slot_of_[static_cast<std::size_t>(task_id)] < 0) {
    throw std::logic_error(
        "OnePortEngine: scheduler chose a task that is not pending");
  }
  pending_erase(task_id);

  const TaskSpec& spec = task_specs_[static_cast<std::size_t>(task_id)];
  task_committed_[static_cast<std::size_t>(task_id)] = 1;
  task_slave_[static_cast<std::size_t>(task_id)] = slave;
  ++committed_;

  TaskRecord rec;
  rec.task = task_id;
  rec.slave = slave;
  rec.release = spec.release;
  rec.send_start = now_;
  rec.send_end =
      now_ + platform_->comm(slave) * spec.comm_factor;

  bool doomed = false;
  if (!avail_enabled_) {
    // Original closed-form path: the availability-free arithmetic must stay
    // bit-identical to the ReferenceEngine oracle (test_engine_diff).
    rec.comp_start = std::max(rec.send_end, slave_ready_[js]);
    rec.comp_end = rec.comp_start +
                   platform_->comp(slave) * spec.comp_factor *
                       slowdown_factor_at(options_.slowdowns, slave,
                                          rec.comp_start);
    slave_ready_[js] = rec.comp_end;
    slave_comp_ends_[js].push_back(rec.comp_end);
    events_.push(rec.comp_end, EventKind::kCompletion);
  } else {
    doomed = chain_doomed_[js] != 0;
    double partial_work = 0.0;
    if (!doomed) {
      const Time exec_start = std::max(rec.send_end, slave_act_busy_[js]);
      const double work = platform_->comp(slave) * spec.comp_factor *
                          slowdown_factor_at(options_.slowdowns, slave,
                                             exec_start);
      const platform::AvailabilityProfile& profile = options_.availability[js];
      const std::optional<Time> outage = profile.next_offline_after(now_);
      if (outage && exec_start >= *outage) {
        doomed = true;  // still on the link (or queued) when the slave dies
      } else {
        const Time cut =
            outage ? *outage : std::numeric_limits<Time>::infinity();
        const platform::AvailabilityProfile::WorkResult run =
            profile.run_work(exec_start, work, cut);
        if (run.completed) {
          rec.comp_start = exec_start;
          rec.comp_end = run.end;
        } else {
          doomed = true;
          partial_work = run.work_done;
        }
      }
    }
    if (doomed) {
      // The outage that will wipe this task out is the engine's secret; the
      // observable ready time extends by a current-speed extrapolation, and
      // the flush at the transition instant re-queues the task.
      chain_doomed_[js] = 1;
      doomed_tasks_[js].push_back(task_id);
      doomed_partial_work_[js] += partial_work;
      const Time plan_start = std::max(rec.send_end, slave_ready_[js]);
      const double plan_work =
          platform_->comp(slave) * spec.comp_factor *
          slowdown_factor_at(options_.slowdowns, slave, plan_start);
      slave_ready_[js] = plan_start + plan_work / slave_speed_[js];
      slave_comp_ends_[js].push_back(slave_ready_[js]);
    } else {
      slave_ready_[js] = rec.comp_end;
      slave_act_busy_[js] = rec.comp_end;
      slave_comp_ends_[js].push_back(rec.comp_end);
      events_.push(rec.comp_end, EventKind::kCompletion);
    }
  }

  // One combined delta event covers the whole commit: the pending erase
  // (pending_erase is only ever called from here) and the slave's new raw
  // busy-until estimate, doomed-extrapolation included. Subscribers re-read
  // port_free_at() at sync time, so the port write below needs no event.
  DeltaEvent event;
  event.kind = DeltaKind::kCommit;
  event.task = task_id;
  event.slave = slave;
  event.ready = slave_ready_[js];
  log_delta(event);

  if (!port_busy_until_.empty()) {
    auto port = std::min_element(port_busy_until_.begin(),
                                 port_busy_until_.end());
    if (*port > now_ + kTimeEps) {
      throw std::logic_error("OnePortEngine: commit with no free port");
    }
    *port = rec.send_end;
  }
  if (options_.enable_trace) {
    trace_.record(
        TraceEvent{TraceEvent::Kind::kAssign, now_, task_id, slave, 0.0});
    trace_.record(TraceEvent{TraceEvent::Kind::kSendEnd, rec.send_end,
                             task_id, slave, 0.0});
    if (!doomed) {
      trace_.record(TraceEvent{TraceEvent::Kind::kCompEnd, rec.comp_end,
                               task_id, slave, 0.0});
    }
  }
  if (!doomed) schedule_.add(rec);
}

std::optional<Time> OnePortEngine::next_wakeup() {
  std::optional<Time> best;
  auto consider = [&](Time t) {
    if (t > now_ + kTimeEps && (!best || t < *best)) best = t;
  };
  // Releases already sit in a sorted calendar (release_order_ plus a
  // cursor), a port's busy-until is a tiny array bounded by the port
  // capacity, and the next availability transition is the top of its own
  // per-slave heap — all O(1)-ish to consult directly, so pushing them through the heap would
  // only add traffic. The heap carries what the reference engine has to
  // *scan* for: the per-slave completion instants (its O(slaves * log
  // tasks) inner loop) and WaitUntil wake-ups.
  if (next_release_idx_ < release_order_.size()) {
    const TaskId id = release_order_[next_release_idx_];
    consider(task_specs_[static_cast<std::size_t>(id)].release);
  }
  for (Time t : port_busy_until_) consider(t);
  if (!avail_heap_.empty()) consider(avail_heap_.front().first);
  // Lazy pruning: an entry at or before now() can never matter again (time
  // only moves forward), and a wake entry whose generation was superseded
  // by a newer request or an assignment is dead no matter its time. Every
  // surviving entry is a *current* fact — a committed completion, or the
  // live WaitUntil — so the heap minimum equals the minimum the reference
  // engine derives from its completion-list scans.
  while (!events_.empty()) {
    const Event& top = events_.top();
    if (top.time <= now_ + kTimeEps ||
        (top.kind == EventKind::kSchedulerWake && top.gen != wake_gen_)) {
      events_.pop();
      continue;
    }
    consider(top.time);
    break;
  }
  return best;
}

void OnePortEngine::run_until(Time t) {
  require_bound();
  if (t < now_ - kTimeEps) {
    throw std::invalid_argument("OnePortEngine: run_until into the past");
  }
  for (;;) {
    process_avail_transitions();
    process_releases();
    if (now_ + kTimeEps < t && try_decide()) continue;
    const std::optional<Time> wake = next_wakeup();
    if (!wake || *wake > t + kTimeEps) {
      now_ = std::max(now_, t);
      process_avail_transitions();  // transitions at exactly t take effect
      return;
    }
    now_ = std::min(*wake, t);
  }
}

void OnePortEngine::run_to_completion() {
  require_bound();
  for (;;) {
    process_avail_transitions();
    process_releases();
    if (try_decide()) continue;
    // Once every task has a completed record, the only calendar entries
    // left can be future availability transitions (and their wake-ups);
    // draining them would drag now() past the true completion time.
    if (avail_enabled_ && pending_count_ == 0 &&
        next_release_idx_ >= release_order_.size() &&
        schedule_.size() == total_tasks()) {
      break;
    }
    const std::optional<Time> wake = next_wakeup();
    if (!wake) break;
    now_ = *wake;
  }
  if (pending_count_ != 0 || next_release_idx_ < release_order_.size()) {
    throw std::logic_error(
        "OnePortEngine: scheduler '" + scheduler_->name() +
        "' deferred forever with tasks pending (deadlock; with availability "
        "profiles this can mean a slave never comes back online)");
  }
  now_ = std::max(now_, schedule_.makespan());
}

Schedule OnePortEngine::take_schedule() {
  Schedule out = std::move(schedule_);
  schedule_.clear();
  return out;
}

Time OnePortEngine::port_free_at() const {
  if (port_busy_until_.empty()) return now_;
  const Time earliest =
      *std::min_element(port_busy_until_.begin(), port_busy_until_.end());
  return std::max(now_, earliest);
}

int OnePortEngine::tasks_in_system(SlaveId j) const {
  if (j < 0 || j >= platform_->size()) {
    throw std::out_of_range("OnePortEngine: slave id out of range");
  }
  const std::vector<Time>& ends = slave_comp_ends_[static_cast<std::size_t>(j)];
  const auto it = std::upper_bound(ends.begin(), ends.end(), now_ + kTimeEps);
  return static_cast<int>(ends.end() - it);
}

TaskId OnePortEngine::pending_front() const {
  if (pending_count_ == 0) {
    throw std::logic_error("OnePortEngine: no pending task");
  }
  pending_advance_begin();
  return pending_slots_[pending_begin_];
}

std::vector<TaskId> OnePortEngine::pending_tasks() const {
  std::vector<TaskId> out;
  out.reserve(static_cast<std::size_t>(pending_count_));
  pending_advance_begin();
  const std::size_t n = pending_slots_.size();
  for (std::size_t slot = pending_begin_; slot < n;) {
    const std::size_t bucket = slot >> kPendingBucketShift;
    if (pending_bucket_live_[bucket] == 0) {
      slot = (bucket + 1) << kPendingBucketShift;  // skip the dead bucket
      continue;
    }
    const TaskId id = pending_slots_[slot];
    if (id >= 0) out.push_back(id);
    ++slot;
  }
  return out;
}

const TaskSpec& OnePortEngine::task_spec(TaskId i) const {
  if (i < 0 || i >= total_tasks()) {
    throw std::out_of_range("OnePortEngine: task id out of range");
  }
  return task_specs_[static_cast<std::size_t>(i)];
}

std::optional<SlaveId> OnePortEngine::assignment_of(TaskId task) const {
  if (task < 0 || task >= total_tasks()) return std::nullopt;
  if (task_committed_[static_cast<std::size_t>(task)] == 0) return std::nullopt;
  return task_slave_[static_cast<std::size_t>(task)];
}

SlaveStateView OnePortEngine::slave_state() const {
  SlaveStateView s;
  s.comm = platform_->comm_data();
  s.comp = platform_->comp_data();
  s.ready = slave_ready_.data();
  if (avail_enabled_) {
    s.online = slave_online_.data();
    s.speed = slave_speed_.data();
  }
  s.m = platform_->size();
  return s;
}

Schedule simulate(const platform::Platform& platform, const Workload& workload,
                  OnlineScheduler& scheduler, EngineOptions options,
                  DisruptionStats* disruption) {
  // One engine per thread, reused across calls: a grid sweep calls
  // simulate() once per (cell, platform, algorithm) and previously paid a
  // full allocation of every internal vector each time. The guard covers
  // the (currently hypothetical) case of a scheduler whose decide() calls
  // simulate() recursively.
  thread_local OnePortEngine reusable;
  thread_local bool engine_in_use = false;

  scheduler.reset();
  if (engine_in_use) {
    OnePortEngine engine(platform, scheduler, std::move(options));
    engine.load(workload);
    engine.run_to_completion();
    if (disruption != nullptr) *disruption = engine.disruption();
    return engine.take_schedule();
  }
  engine_in_use = true;
  struct Release {
    bool* flag;
    ~Release() { *flag = false; }
  } release_guard{&engine_in_use};
  reusable.reset(platform, scheduler, std::move(options));
  reusable.load(workload);
  reusable.run_to_completion();
  if (disruption != nullptr) *disruption = reusable.disruption();
  return reusable.take_schedule();
}

}  // namespace msol::core
