#include "core/validator.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace msol::core {

namespace {

constexpr double kDurEps = 1e-6;  // duration checks (looser than event order)

/// One violation message, formatted by a stream. Called only once a check
/// has failed, so a valid record builds no stream.
template <typename... Parts>
std::string message(const Parts&... parts) {
  std::ostringstream msg;
  (msg << ... << parts);
  return msg.str();
}

void check_durations(const platform::Platform& platform,
                     const Workload& workload, const TaskRecord& r,
                     const EngineOptions& options,
                     std::vector<std::string>& out) {
  const TaskSpec& spec = workload.at(r.task);
  if (r.send_start < spec.release - kTimeEps) {
    out.push_back(message("task ", r.task, ": send starts at ", r.send_start,
                          " before release ", spec.release));
    return;
  }
  const Time want_send =
      platform.comm(r.slave) * spec.comm_factor;
  if (std::abs((r.send_end - r.send_start) - want_send) > kDurEps) {
    out.push_back(message("task ", r.task, ": send duration ",
                          r.send_end - r.send_start, " != c_j*factor ",
                          want_send));
  }
  if (r.comp_start < r.send_end - kTimeEps) {
    out.push_back(message("task ", r.task, ": computes at ", r.comp_start,
                          " before arrival ", r.send_end));
  }
  const double want_work =
      platform.comp(r.slave) * spec.comp_factor *
      slowdown_factor_at(options.slowdowns, r.slave, r.comp_start);
  const platform::AvailabilityProfile* profile =
      options.availability.empty()
          ? nullptr
          : &options.availability[static_cast<std::size_t>(r.slave)];
  if (profile == nullptr || profile->trivial()) {
    if (std::abs((r.comp_end - r.comp_start) - want_work) > kDurEps) {
      out.push_back(message("task ", r.task, ": compute duration ",
                            r.comp_end - r.comp_start, " != p_j*factor ",
                            want_work));
    }
  } else {
    // Time-varying slave: the record must fit inside one online stretch
    // (offline transitions abort, so no completed task spans one) and the
    // piecewise speed integral over [comp_start, comp_end] must equal the
    // task's work. Re-derived from the profile, not the engine's solver.
    const std::optional<Time> outage = profile->next_offline_after(
        r.comp_start - kTimeEps);
    if (!profile->online_at(r.comp_start) ||
        (outage && r.comp_end > *outage + kDurEps)) {
      out.push_back(message("task ", r.task, ": computes on slave ", r.slave,
                            " while it is offline (t=", r.comp_start, "..",
                            r.comp_end, ")"));
    }
    const double done = profile->online_work_between(r.comp_start, r.comp_end);
    if (std::abs(done - want_work) > kDurEps) {
      out.push_back(message("task ", r.task, ": integrated compute work ",
                            done, " != p_j*factor ", want_work));
    }
  }
}

}  // namespace

std::vector<std::string> validate(const platform::Platform& platform,
                                  const Workload& workload,
                                  const Schedule& schedule,
                                  int port_capacity) {
  return validate(platform, workload, schedule, EngineOptions{},
                  port_capacity);
}

std::vector<std::string> validate(const platform::Platform& platform,
                                  const Workload& workload,
                                  const Schedule& schedule,
                                  const EngineOptions& options,
                                  std::optional<int> ports) {
  const int port_capacity = ports.value_or(options.port_capacity);
  std::vector<std::string> out;

  // Coverage: every task exactly once, valid ids.
  std::vector<int> seen(static_cast<std::size_t>(workload.size()), 0);
  for (const TaskRecord& r : schedule.records()) {
    if (r.task < 0 || r.task >= workload.size()) {
      out.push_back("record references unknown task id " +
                    std::to_string(r.task));
      continue;
    }
    if (r.slave < 0 || r.slave >= platform.size()) {
      out.push_back("task " + std::to_string(r.task) +
                    " assigned to unknown slave " + std::to_string(r.slave));
      continue;
    }
    ++seen[static_cast<std::size_t>(r.task)];
    check_durations(platform, workload, r, options, out);
  }
  for (TaskId i = 0; i < workload.size(); ++i) {
    const int n = seen[static_cast<std::size_t>(i)];
    if (n == 0) out.push_back("task " + std::to_string(i) + " never scheduled");
    if (n > 1) {
      out.push_back("task " + std::to_string(i) + " scheduled " +
                    std::to_string(n) + " times");
    }
  }

  // One-port: sweep send intervals; at most port_capacity concurrent.
  if (port_capacity > 0) {
    // Events: +1 at send_start, -1 at send_end. Back-to-back sends are
    // legal, and so is an overlap of up to kTimeEps: an end sorts at
    // e - kTimeEps, a start at s, and ends first at equal keys, so an end
    // precedes a start exactly when e <= s + kTimeEps. A strict key, since
    // "within kTimeEps" is not transitive and std::sort needs an order.
    std::vector<std::pair<Time, int>> events;
    events.reserve(schedule.records().size() * 2);
    for (const TaskRecord& r : schedule.records()) {
      events.emplace_back(r.send_start, +1);
      events.emplace_back(r.send_end - kTimeEps, -1);
    }
    std::sort(events.begin(), events.end());
    int in_flight = 0;
    for (const auto& [t, delta] : events) {
      in_flight += delta;
      if (in_flight > port_capacity) {
        out.push_back(message("one-port violation: ", in_flight,
                              " sends in flight at t=", t, " (capacity ",
                              port_capacity, ")"));
        break;
      }
    }
  }

  // Per-slave serial execution.
  std::map<SlaveId, std::vector<std::pair<Time, Time>>> per_slave;
  for (const TaskRecord& r : schedule.records()) {
    if (r.slave >= 0 && r.slave < platform.size()) {
      per_slave[r.slave].emplace_back(r.comp_start, r.comp_end);
    }
  }
  for (auto& [slave, intervals] : per_slave) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      if (intervals[i].first < intervals[i - 1].second - kTimeEps) {
        out.push_back(message("slave ", slave,
                              " computes two tasks at once around t=",
                              intervals[i].first));
        break;
      }
    }
  }

  return out;
}

void validate_or_throw(const platform::Platform& platform,
                       const Workload& workload, const Schedule& schedule,
                       int port_capacity) {
  validate_or_throw(platform, workload, schedule, EngineOptions{},
                    port_capacity);
}

void validate_or_throw(const platform::Platform& platform,
                       const Workload& workload, const Schedule& schedule,
                       const EngineOptions& options,
                       std::optional<int> port_capacity) {
  const std::vector<std::string> violations =
      validate(platform, workload, schedule, options, port_capacity);
  if (violations.empty()) return;
  std::string msg = "infeasible schedule:";
  for (const std::string& v : violations) msg += "\n  - " + v;
  throw std::logic_error(msg);
}

}  // namespace msol::core
