// The decision loop below is the original engine implementation, kept
// byte-for-byte where possible (only renames and the EngineView adapter
// methods differ). It is the oracle the differential fuzz suite compares
// the event-calendar engine against — keep it boring.

#include "oracles/reference_engine.hpp"

#include <algorithm>
#include <stdexcept>

namespace msol::core {

ReferenceEngine::ReferenceEngine(platform::Platform platform,
                                 OnlineScheduler& scheduler,
                                 EngineOptions options)
    : platform_(std::move(platform)), scheduler_(scheduler), options_(options) {
  if (options_.port_capacity < 0) {
    throw std::invalid_argument("ReferenceEngine: negative port capacity");
  }
  // The frozen oracle predates time-varying availability; trivial (all
  // empty) profiles are accepted so the differential suite can prove the
  // calendar engine's disabled path, anything else is refused loudly.
  for (const platform::AvailabilityProfile& profile : options_.availability) {
    if (!profile.trivial()) {
      throw std::invalid_argument(
          "ReferenceEngine: time-varying availability is not supported");
    }
  }
  if (options_.port_capacity > 0) {
    port_busy_until_.assign(static_cast<std::size_t>(options_.port_capacity),
                            0.0);
  }
  slave_ready_.assign(static_cast<std::size_t>(platform_.size()), 0.0);
  slave_comp_ends_.assign(static_cast<std::size_t>(platform_.size()), {});
}

void ReferenceEngine::load(const Workload& workload) {
  for (const TaskSpec& spec : workload.tasks()) inject_task(spec);
}

TaskId ReferenceEngine::inject_task(TaskSpec spec) {
  if (spec.release < now_ - kTimeEps) {
    throw std::invalid_argument(
        "ReferenceEngine: cannot inject a task released in the past");
  }
  spec.release = std::max(spec.release, now_);
  const TaskId id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(TaskState{spec, /*released=*/false, /*committed=*/false, -1});

  // Keep the unprocessed suffix of release_order_ sorted by release time;
  // equal releases keep injection order so adversary task numbering is stable.
  const auto first = release_order_.begin() +
                     static_cast<std::ptrdiff_t>(next_release_idx_);
  const auto pos = std::upper_bound(
      first, release_order_.end(), spec.release,
      [this](Time r, TaskId t) {
        return r < tasks_[static_cast<std::size_t>(t)].spec.release;
      });
  release_order_.insert(pos, id);
  return id;
}

void ReferenceEngine::process_releases() {
  while (next_release_idx_ < release_order_.size()) {
    const TaskId id = release_order_[next_release_idx_];
    TaskState& task = tasks_[static_cast<std::size_t>(id)];
    if (task.spec.release > now_ + kTimeEps) break;
    ++next_release_idx_;
    task.released = true;
    pending_.push_back(id);
    if (options_.enable_trace) {
      trace_.record(TraceEvent{TraceEvent::Kind::kRelease, task.spec.release,
                               id, -1, 0.0});
    }
    scheduler_.on_task_released(*this, id);
  }
}

bool ReferenceEngine::try_decide() {
  if (pending_.empty() || !port_free_now()) return false;
  const Decision decision = scheduler_.decide(*this);
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
    if (wait->time > now_ + kTimeEps) scheduler_wake_ = wait->time;
    return false;
  }
  const Assign assign = std::get<Assign>(decision);
  scheduler_wake_.reset();
  commit(assign.task, assign.slave);
  return true;
}

void ReferenceEngine::commit(TaskId task_id, SlaveId slave) {
  if (slave < 0 || slave >= platform_.size()) {
    throw std::logic_error("ReferenceEngine: scheduler chose an invalid slave");
  }
  const auto it = std::find(pending_.begin(), pending_.end(), task_id);
  if (it == pending_.end()) {
    throw std::logic_error(
        "ReferenceEngine: scheduler chose a task that is not pending");
  }
  pending_.erase(it);

  TaskState& task = tasks_[static_cast<std::size_t>(task_id)];
  task.committed = true;
  task.slave = slave;
  ++committed_;

  TaskRecord rec;
  rec.task = task_id;
  rec.slave = slave;
  rec.release = task.spec.release;
  rec.send_start = now_;
  rec.send_end =
      now_ + platform_.comm(slave) * task.spec.comm_factor;
  rec.comp_start = std::max(rec.send_end,
                            slave_ready_[static_cast<std::size_t>(slave)]);
  rec.comp_end = rec.comp_start +
                 platform_.comp(slave) * task.spec.comp_factor *
                     slowdown_factor_at(options_.slowdowns, slave,
                                        rec.comp_start);
  slave_ready_[static_cast<std::size_t>(slave)] = rec.comp_end;
  slave_comp_ends_[static_cast<std::size_t>(slave)].push_back(rec.comp_end);

  if (!port_busy_until_.empty()) {
    auto port = std::min_element(port_busy_until_.begin(),
                                 port_busy_until_.end());
    if (*port > now_ + kTimeEps) {
      throw std::logic_error("ReferenceEngine: commit with no free port");
    }
    *port = rec.send_end;
  }
  if (options_.enable_trace) {
    trace_.record(
        TraceEvent{TraceEvent::Kind::kAssign, now_, task_id, slave, 0.0});
    trace_.record(TraceEvent{TraceEvent::Kind::kSendEnd, rec.send_end,
                             task_id, slave, 0.0});
    trace_.record(TraceEvent{TraceEvent::Kind::kCompEnd, rec.comp_end,
                             task_id, slave, 0.0});
  }
  schedule_.add(rec);
}

std::optional<Time> ReferenceEngine::next_wakeup() const {
  std::optional<Time> best;
  auto consider = [&](Time t) {
    if (t > now_ + kTimeEps && (!best || t < *best)) best = t;
  };
  if (next_release_idx_ < release_order_.size()) {
    const TaskId id = release_order_[next_release_idx_];
    consider(tasks_[static_cast<std::size_t>(id)].spec.release);
  }
  if (scheduler_wake_) consider(*scheduler_wake_);
  for (Time t : port_busy_until_) consider(t);
  for (Time t : slave_ready_) consider(t);
  // Intermediate completions (a queue draining below a threshold) can also
  // unblock a deferring scheduler; comp ends are monotone per slave, so the
  // first one past now() is found by binary search.
  for (const std::vector<Time>& ends : slave_comp_ends_) {
    const auto it = std::upper_bound(ends.begin(), ends.end(),
                                     now_ + kTimeEps);
    if (it != ends.end()) consider(*it);
  }
  return best;
}

void ReferenceEngine::run_until(Time t) {
  if (t < now_ - kTimeEps) {
    throw std::invalid_argument("ReferenceEngine: run_until into the past");
  }
  for (;;) {
    process_releases();
    if (now_ + kTimeEps < t && try_decide()) continue;
    const std::optional<Time> wake = next_wakeup();
    if (!wake || *wake > t + kTimeEps) {
      now_ = std::max(now_, t);
      process_releases();  // releases at exactly t become visible
      return;
    }
    now_ = std::min(*wake, t);
  }
}

void ReferenceEngine::run_to_completion() {
  for (;;) {
    process_releases();
    if (try_decide()) continue;
    const std::optional<Time> wake = next_wakeup();
    if (!wake) break;
    now_ = *wake;
  }
  if (!pending_.empty() || next_release_idx_ < release_order_.size()) {
    throw std::logic_error(
        "ReferenceEngine: scheduler '" + scheduler_.name() +
        "' deferred forever with tasks pending (deadlock)");
  }
  now_ = std::max(now_, schedule_.makespan());
}

Time ReferenceEngine::port_free_at() const {
  if (port_busy_until_.empty()) return now_;
  const Time earliest =
      *std::min_element(port_busy_until_.begin(), port_busy_until_.end());
  return std::max(now_, earliest);
}

int ReferenceEngine::tasks_in_system(SlaveId j) const {
  if (j < 0 || j >= platform_.size()) {
    throw std::out_of_range("ReferenceEngine: slave id out of range");
  }
  const std::vector<Time>& ends = slave_comp_ends_[static_cast<std::size_t>(j)];
  const auto it = std::upper_bound(ends.begin(), ends.end(), now_ + kTimeEps);
  return static_cast<int>(ends.end() - it);
}

TaskId ReferenceEngine::pending_front() const {
  if (pending_.empty()) {
    throw std::logic_error("ReferenceEngine: no pending task");
  }
  return pending_.front();
}

std::vector<TaskId> ReferenceEngine::pending_tasks() const {
  return std::vector<TaskId>(pending_.begin(), pending_.end());
}

const TaskSpec& ReferenceEngine::task_spec(TaskId i) const {
  if (i < 0 || i >= total_tasks()) {
    throw std::out_of_range("ReferenceEngine: task id out of range");
  }
  return tasks_[static_cast<std::size_t>(i)].spec;
}

std::optional<SlaveId> ReferenceEngine::assignment_of(TaskId task) const {
  if (task < 0 || task >= total_tasks()) return std::nullopt;
  const TaskState& state = tasks_[static_cast<std::size_t>(task)];
  if (!state.committed) return std::nullopt;
  return state.slave;
}

SlaveStateView ReferenceEngine::slave_state() const {
  SlaveStateView s;
  s.comm = platform_.comm_data();
  s.comp = platform_.comp_data();
  s.ready = slave_ready_.data();
  s.m = platform_.size();
  return s;
}

}  // namespace msol::core
