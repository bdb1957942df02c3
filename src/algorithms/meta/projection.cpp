#include "algorithms/meta/projection.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <variant>

namespace msol::algorithms::meta {

IncrementalProjection::IncrementalProjection(const core::OnePortEngine& live)
    : live_(&live) {
  live_->enable_delta_feed();
}

void IncrementalProjection::set_ready(core::SlaveId j, core::Time value) {
  const auto js = static_cast<std::size_t>(j);
  const auto it = ready_sorted_.find(ready_[js]);
  // The mirror and the multiset hold the same m values by construction;
  // equal values are fungible, so erasing *an* occurrence is exact.
  ready_sorted_.erase(it);
  ready_[js] = value;
  ready_sorted_.insert(value);
}

void IncrementalProjection::rollback() {
  for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
    set_ready(it->first, it->second);
  }
  undo_.clear();
}

core::Time IncrementalProjection::base_ready_of(core::SlaveId j) const {
  // A live write slot holds the pre-run mirror value commit() recorded on
  // the slave's first projected write; otherwise the mirror is unwritten
  // and ready_ itself is the base.
  const auto js = static_cast<std::size_t>(j);
  return write_slot_gen_[js] == run_gen_ ? base_ready_slot_[js] : ready_[js];
}

void IncrementalProjection::rebuild() {
  const int m = live_->platform().size();
  const auto ms = static_cast<std::size_t>(m);
  ready_.resize(ms);
  online_.resize(ms);
  eff_comp_.resize(ms);
  ready_sorted_.clear();
  offline_count_ = 0;
  const core::SlaveStateView s = live_->slave_state();
  const core::Time now = live_->now();
  for (core::SlaveId j = 0; j < m; ++j) {
    const auto js = static_cast<std::size_t>(j);
    online_[js] = s.is_online(j) ? 1 : 0;
    if (online_[js] == 0) ++offline_count_;
    // The same effective p_j the fresh snapshot computes: nominal scaled by
    // the current speed, kept nominal for offline slaves whose value is
    // never read.
    core::Time comp = s.comp[j];
    if (online_[js] != 0 && s.speed != nullptr) comp /= s.speed[j];
    eff_comp_[js] = comp;
    ready_[js] = std::max(now, s.ready[j]);
    ready_sorted_.insert(ready_[js]);
  }
  pending_.clear();
  for (core::TaskId id : live_->pending_tasks()) pending_.push_back(id);
  // Slot arrays track the platform size; stamp 0 is never a live
  // generation (begin_run increments before first use).
  write_slot_gen_.resize(ms, 0);
  base_ready_slot_.resize(ms, 0.0);
}

void IncrementalProjection::apply(const core::DeltaEvent& event) {
  switch (event.kind) {
    case core::DeltaKind::kPendingPush:
      pending_.push_back(event.task);
      return;
    case core::DeltaKind::kCommit: {
      // Commits overwhelmingly take the FIFO front (every registry policy
      // commits pending_front()); the find covers adversarial harness
      // policies that commit arbitrary pending tasks on the live engine.
      if (!pending_.empty() && pending_.front() == event.task) {
        pending_.pop_front();
      } else {
        const auto it =
            std::find(pending_.begin(), pending_.end(), event.task);
        if (it != pending_.end()) pending_.erase(it);
      }
      set_ready(event.slave, event.ready);
      return;
    }
    case core::DeltaKind::kSlaveUp:
    case core::DeltaKind::kSpeedShift: {
      const auto js = static_cast<std::size_t>(event.slave);
      if (event.kind == core::DeltaKind::kSlaveUp && online_[js] == 0) {
        online_[js] = 1;
        --offline_count_;
      }
      core::Time comp = live_->platform().comp(event.slave);
      if (event.speed > 0.0) comp /= event.speed;
      eff_comp_[js] = comp;
      return;
    }
    case core::DeltaKind::kDisrupt: {
      // What rebuild() reads for an offline slave: nominal p_j, busy-until
      // reset to the outage instant. The re-queued tasks follow as
      // kPendingPush events.
      const auto js = static_cast<std::size_t>(event.slave);
      if (online_[js] != 0) {
        online_[js] = 0;
        ++offline_count_;
      }
      eff_comp_[js] = live_->platform().comp(event.slave);
      set_ready(event.slave, event.ready);
      return;
    }
  }
}

void IncrementalProjection::sync() {
  rollback();  // safety: a run that threw must not leak projected writes
  const std::uint64_t end = live_->delta_end();
  if (!primed_ || generation_ != live_->delta_generation() ||
      cursor_ < live_->delta_begin() || cursor_ > end) {
    rebuild();
    ++rebuilds_;
  } else {
    for (std::uint64_t seq = cursor_; seq < end; ++seq) {
      apply(live_->delta_event(seq));
    }
    ++resyncs_;
  }
  cursor_ = end;
  generation_ = live_->delta_generation();
  primed_ = true;
}

void IncrementalProjection::begin_run() {
  rollback();
  ++run_gen_;  // retires every write slot from the previous run
  now_ = live_->now();
  master_free_ = live_->port_free_at();
  pending_pos_ = 0;
  commits_ = 0;
  base_committed_ = live_->completed_or_committed();
  total_tasks_ = live_->total_tasks();
  proj_ends_.clear();
  assigned_.clear();
  // Snapshot the live in-system counts at most once per engine state: the
  // engine is frozen for the whole decision, so every member of a portfolio
  // shares one m-wide sweep instead of paying a virtual upper_bound per
  // tasks_in_system query (the live counts are a pure function of
  // (generation, event seq, now) — commits and re-dispatches bump the seq,
  // and draining past completions only moves with now).
  const std::uint64_t seq = live_->delta_end();
  const std::uint64_t gen = live_->delta_generation();
  const core::Time live_now = live_->now();
  if (!base_in_system_primed_ || base_in_system_gen_ != gen ||
      base_in_system_seq_ != seq || base_in_system_now_ != live_now) {
    const int m = live_->platform().size();
    base_in_system_.resize(static_cast<std::size_t>(m));
    for (core::SlaveId j = 0; j < m; ++j) {
      base_in_system_[static_cast<std::size_t>(j)] =
          live_->tasks_in_system(j);
    }
    base_in_system_gen_ = gen;
    base_in_system_seq_ = seq;
    base_in_system_now_ = live_now;
    base_in_system_primed_ = true;
  }
}

core::Time IncrementalProjection::port_free_at() const {
  return std::max(now_, master_free_);
}

int IncrementalProjection::tasks_in_system(core::SlaveId j) const {
  // Same two-part formula as the fresh snapshot: the live count survives
  // until the pre-run ready estimate passes (read from the per-decision
  // base_in_system_ cache begin_run() keeps — identical to the live value
  // while the engine is frozen), then our own projected commits count
  // exactly.
  int n = now_ + core::kTimeEps < base_ready_of(j)
              ? base_in_system_[static_cast<std::size_t>(j)]
              : 0;
  for (const auto& [slave, end] : proj_ends_) {
    if (slave == j && end > now_ + core::kTimeEps) ++n;
  }
  return n;
}

core::TaskId IncrementalProjection::pending_front() const {
  if (pending_pos_ >= pending_.size()) {
    throw std::logic_error("IncrementalProjection: no pending task");
  }
  return pending_[pending_pos_];
}

std::vector<core::TaskId> IncrementalProjection::pending_tasks() const {
  return std::vector<core::TaskId>(
      pending_.begin() + static_cast<std::ptrdiff_t>(pending_pos_),
      pending_.end());
}

int IncrementalProjection::pending_count() const {
  return static_cast<int>(pending_.size() - pending_pos_);
}

const core::TaskSpec& IncrementalProjection::task_spec(core::TaskId i) const {
  // Same membership contract as the fresh snapshot (pending tasks only),
  // with the spec read from the live engine instead of a copied deque —
  // specs of pending tasks are immutable while the engine is frozen.
  for (std::size_t k = pending_pos_; k < pending_.size(); ++k) {
    if (pending_[k] == i) return live_->task_spec(i);
  }
  throw std::out_of_range(
      "IncrementalProjection: task_spec is only available for pending tasks");
}

std::optional<core::SlaveId> IncrementalProjection::assignment_of(
    core::TaskId task) const {
  for (const auto& [id, slave] : assigned_) {
    if (id == task) return slave;
  }
  return std::nullopt;
}

core::SlaveStateView IncrementalProjection::slave_state() const {
  core::SlaveStateView s;
  s.comm = live_->platform().comm_data();
  s.comp = eff_comp_.data();  // speed folded in, so s.speed stays null
  s.ready = ready_.data();
  // With every mirror slave online the null fast path is the same function
  // as an all-ones byte array — and it unlocks the vector kernels.
  s.online = offline_count_ > 0 ? online_.data() : nullptr;
  s.m = live_->platform().size();
  return s;
}

void IncrementalProjection::commit(const core::Assign& assign) {
  if (pending_pos_ >= pending_.size() ||
      assign.task != pending_[pending_pos_]) {
    throw std::logic_error(
        "IncrementalProjection: policies may only commit the pending front "
        "task");
  }
  const auto js = static_cast<std::size_t>(assign.slave);
  if (assign.slave < 0 || assign.slave >= live_->platform().size() ||
      online_[js] == 0) {
    throw std::logic_error(
        "IncrementalProjection: commit to an offline or invalid slave");
  }
  // Inlined StepSimulator::step on the mirror state — operation-for-
  // operation the fresh projection's commit (port clamp, past-release
  // clamp, FIFO step arithmetic on the effective platform).
  master_free_ = std::max(master_free_, now_);
  const core::TaskSpec& spec = live_->task_spec(assign.task);
  const core::Time release = std::min(spec.release, now_);
  const core::Time send_start = std::max(master_free_, release);
  const core::Time send_end =
      send_start + live_->platform().comm(assign.slave) * spec.comm_factor;
  const core::Time comp_start = std::max(send_end, ready_[js]);
  const core::Time comp_end = comp_start + eff_comp_[js] * spec.comp_factor;
  master_free_ = send_end;
  if (write_slot_gen_[js] != run_gen_) {  // first projected write this run
    write_slot_gen_[js] = run_gen_;
    base_ready_slot_[js] = ready_[js];
    undo_.emplace_back(assign.slave, ready_[js]);
  }
  set_ready(assign.slave, comp_end);
  proj_ends_.emplace_back(assign.slave, comp_end);
  assigned_.emplace_back(assign.task, assign.slave);
  ++pending_pos_;
  ++commits_;
}

bool IncrementalProjection::advance(core::Time wait_until) {
  // Value-identical to the fresh projection's O(m) scan over slave_ready:
  // the multiset holds exactly those m values, so the smallest element
  // strictly after now (+eps) is the same candidate the scan finds.
  core::Time next = std::numeric_limits<core::Time>::infinity();
  if (master_free_ > now_ + core::kTimeEps) next = master_free_;
  const auto it = ready_sorted_.upper_bound(now_ + core::kTimeEps);
  if (it != ready_sorted_.end() && *it < next) next = *it;
  if (wait_until > now_ + core::kTimeEps && wait_until < next) {
    next = wait_until;
  }
  if (!std::isfinite(next)) return false;
  now_ = next;
  return true;
}

ProjectionOutcome IncrementalProjection::run(core::OnlineScheduler& policy,
                                             int horizon) {
  begin_run();
  ProjectionOutcome out;
  out.makespan = now_;
  bool first_recorded = false;
  const core::Time no_wait = std::numeric_limits<core::Time>::infinity();
  while (commits_ < horizon && pending_pos_ < pending_.size()) {
    if (!port_free_now()) {
      if (!advance(no_wait)) {
        out.stalled = true;
        break;
      }
      continue;
    }
    const core::Decision decision = policy.decide(*this);
    if (!first_recorded) {
      out.first = decision;
      first_recorded = true;
    }
    if (const auto* assign = std::get_if<core::Assign>(&decision)) {
      commit(*assign);
      out.makespan = std::max(out.makespan, proj_ends_.back().second);
    } else if (const auto* wait = std::get_if<core::WaitUntil>(&decision)) {
      if (!advance(wait->time)) {
        out.stalled = true;
        break;
      }
    } else {
      if (!advance(no_wait)) {
        out.stalled = true;
        break;
      }
    }
  }
  out.commits = commits_;
  rollback();  // the mirror survives to the next sync()/run()
  return out;
}

}  // namespace msol::algorithms::meta
