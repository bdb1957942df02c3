#pragma once

#include <vector>

#include "core/types.hpp"
#include "platform/platform.hpp"

namespace msol::offline {

/// An off-line assignment plan: `assignment[i]` is the slave of the i-th
/// send (tasks are matched to sends FIFO by release), plus the makespan the
/// plan achieves when all listed releases are honored.
struct OfflinePlan {
  std::vector<core::SlaveId> assignment;
  core::Time makespan = 0.0;
};

/// SLJF ("Scheduling the Last Job First") plan — reconstruction of [23].
///
/// Optimal-makespan builder for communication-homogeneous platforms
/// (c_j = c), working backwards from the makespan like the paper describes
/// ("it calculates, before scheduling the first task, the assignment of all
/// tasks, starting with the last one"):
///
///  1. binary-search the makespan M;
///  2. for a candidate M, each slave j offers compute slots that finish at
///     M, M - p_j, M - 2 p_j, ... (packing a slave's tasks against the end
///     of the schedule is dominant); take the n slots with the latest
///     compute-start deadlines — this maximizes every order statistic of the
///     deadline multiset at once;
///  3. sends are serialized on the master's port; by Jackson's rule the slot
///     deadlines are feasible iff the FIFO/EDF send chain meets them:
///     send_end_i = max(send_end_{i-1}, r_i) + c <= deadline_i for deadlines
///     sorted ascending and releases sorted ascending.
///
/// On heterogeneous-communication platforms SLJF deliberately ignores link
/// differences (this is the behaviour Figure 1(c) punishes): it plans with
/// the *average* c and relies on the engine's actual timing at run time.
///
/// `releases` must be sorted ascending (Workload order).
OfflinePlan sljf_plan(const platform::Platform& platform,
                      const std::vector<core::Time>& releases);

/// SLJFWC ("... With Communication") plan — reconstruction of [23].
///
/// Same backwards construction, but slot selection and the feasibility
/// check use the true per-slave send costs c_j. Two greedy selection rules
/// (latest-achievable-send-start, latest-deadline-cheapest-link) drive the
/// makespan bisection, and a count-move local search then optimizes the
/// replayed makespan directly — the slot choice is genuinely combinatorial
/// when the port and a fast slave saturate together, and the post-pass
/// repairs exactly those cases. Matches the exhaustive optimum on every
/// computation-homogeneous instance in the test sweeps; a strong heuristic
/// on fully heterogeneous ones.
///
/// Tie rule (both planners): compute slots are ordered by deadline, then by
/// slave index. Sends go out in that order, so among tied deadlines the
/// lower slave index is sent first, and when n cuts through a level of
/// tied slots the lowest-indexed slaves get them. Plans therefore do not
/// depend on the standard library's sort or heap.
///
/// Both planners skip only work whose result is already known (a converged
/// bisection, probe orders nobody reads, count moves a lower bound rejects;
/// see deadline_solver.cpp), so plans are bit-identical to the full search.
/// SLJF's bisection probes read slot offsets k * p_j merged once per plan:
/// a slot's deadline M - k * p_j is monotone in its offset, so the offsets
/// give every probe's deadline sequence without rebuilding the slots.
OfflinePlan sljfwc_plan(const platform::Platform& platform,
                        const std::vector<core::Time>& releases);

}  // namespace msol::offline
