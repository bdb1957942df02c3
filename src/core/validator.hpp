#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/schedule.hpp"
#include "core/workload.hpp"
#include "platform/platform.hpp"

namespace msol::core {

/// Independent feasibility checker for schedules under the one-port model.
///
/// Re-derives every constraint from scratch (it shares no code with the
/// engine), so engine bugs cannot self-certify. Checked invariants:
///  * every workload task scheduled exactly once, ids in range;
///  * send_start >= release;
///  * send_end - send_start == c_j * comm_factor;
///  * comp_start >= send_end (a task computes only after full reception);
///  * comp_end - comp_start == p_j * comp_factor;
///  * at most `port_capacity` sends overlap at any instant (one-port);
///  * computations on one slave never overlap.
///
/// Returns human-readable violation messages; empty means feasible.
std::vector<std::string> validate(const platform::Platform& platform,
                                  const Workload& workload,
                                  const Schedule& schedule,
                                  int port_capacity = 1);

/// Variant honoring the full engine options: port capacity, injected
/// slowdown windows, AND availability profiles (compute durations must
/// match the piecewise speed integral, and no completed task may span an
/// offline stretch of its slave). A set `port_capacity` replaces
/// options.port_capacity: a merged K-shard schedule is checked against the
/// whole fleet's options, read in place, with K x c ports.
std::vector<std::string> validate(
    const platform::Platform& platform, const Workload& workload,
    const Schedule& schedule, const EngineOptions& options,
    std::optional<int> port_capacity = std::nullopt);

/// Throws std::logic_error listing the violations if any.
void validate_or_throw(const platform::Platform& platform,
                       const Workload& workload, const Schedule& schedule,
                       int port_capacity = 1);

void validate_or_throw(const platform::Platform& platform,
                       const Workload& workload, const Schedule& schedule,
                       const EngineOptions& options,
                       std::optional<int> port_capacity = std::nullopt);

}  // namespace msol::core
