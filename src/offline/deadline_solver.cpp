#include "offline/deadline_solver.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/workload.hpp"
#include "offline/forward_sim.hpp"

namespace msol::offline {

namespace {

/// One candidate compute slot on the backwards time axis.
struct Slot {
  core::SlaveId slave;
  core::Time deadline;  ///< latest compute-start: M - k * p_j
};

/// The planners' one tie order: deadline ascending, then slave index
/// ascending. It is a strict total order on distinct slots (two slots with
/// equal keys are the same slave at the same deadline, so which comes first
/// changes nothing), so every sort and heap below gives one result whatever
/// the standard library's algorithm.
bool slot_before(const Slot& a, const Slot& b) {
  return a.deadline < b.deadline ||
         (a.deadline == b.deadline && a.slave < b.slave);
}

/// Max-heap on deadline that pops the lower slave index first among ties,
/// so when n cuts through a tie level the lowest-indexed slaves get its
/// slots.
struct SlotOrder {
  bool operator()(const Slot& a, const Slot& b) const {
    return a.deadline < b.deadline ||
           (a.deadline == b.deadline && a.slave > b.slave);
  }
};

/// SLJF selection for uniform send cost: the n latest compute-start
/// deadlines across all per-slave chains. With equal send durations this
/// maximizes every order statistic of the deadline multiset at once, so it
/// is the optimal slot choice. Only the plan's final call builds the slots;
/// the bisection probes read `latest_slot_offsets` instead.
std::vector<Slot> top_slots_uniform(const platform::Platform& platform, int n,
                                    core::Time M) {
  std::priority_queue<Slot, std::vector<Slot>, SlotOrder> heap;
  std::vector<int> depth(static_cast<std::size_t>(platform.size()), 1);
  for (core::SlaveId j = 0; j < platform.size(); ++j) {
    heap.push(Slot{j, M - platform.comp(j)});
  }
  std::vector<Slot> chosen;
  chosen.reserve(static_cast<std::size_t>(n));
  while (static_cast<int>(chosen.size()) < n) {
    Slot top = heap.top();
    heap.pop();
    chosen.push_back(top);
    const core::SlaveId j = top.slave;
    const int k = ++depth[static_cast<std::size_t>(j)];
    heap.push(Slot{j, M - static_cast<core::Time>(k) * platform.comp(j)});
  }
  return chosen;
}

/// A slot's deadline is fl(M - x) for its offset x = fl(k p_j), which does
/// not depend on M, and fl(M - x) never increases as x grows (rounding is
/// monotone). So at every M the n latest deadlines, as a multiset, are the
/// n smallest offsets mapped through fl(M - x), even where distinct offsets
/// round to one deadline. Returns those offsets largest first, so that
/// index i holds the i-th smallest deadline.
std::vector<core::Time> latest_slot_offsets(const platform::Platform& platform,
                                            int n) {
  using Entry = std::pair<core::Time, core::SlaveId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  std::vector<int> depth(static_cast<std::size_t>(platform.size()), 1);
  for (core::SlaveId j = 0; j < platform.size(); ++j) {
    heap.emplace(platform.comp(j), j);
  }
  std::vector<core::Time> offsets(static_cast<std::size_t>(n));
  for (auto it = offsets.rbegin(); it != offsets.rend(); ++it) {
    const core::SlaveId j = heap.top().second;
    *it = heap.top().first;
    heap.pop();
    const int k = ++depth[static_cast<std::size_t>(j)];
    heap.emplace(static_cast<core::Time>(k) * platform.comp(j), j);
  }
  return offsets;
}

/// Jackson's rule for the uniform-cost selection: sends in earliest-
/// deadline order, matched FIFO to the sorted releases, must each complete
/// by their slot's compute-start deadline. A bisection probe reads only
/// deadlines, so it reads them from the precomputed offsets: one pass, no
/// heap and no copy.
bool edf_feasible(const std::vector<core::Time>& offsets,
                  const std::vector<core::Time>& releases,
                  core::Time send_cost, core::Time M) {
  core::Time send_end = 0.0;
  for (std::size_t i = 0; i < offsets.size(); ++i) {
    send_end = std::max(send_end, releases[i]) + send_cost;
    if (send_end > (M - offsets[i]) + core::kTimeEps) return false;
  }
  return true;
}

/// The same check on the final plan's slots, which it sorts into the tie
/// order first: that order is the plan's send order, written to
/// `order_out`.
bool edf_feasible(std::vector<Slot> slots,
                  const std::vector<core::Time>& releases,
                  core::Time send_cost,
                  std::vector<core::SlaveId>& order_out) {
  std::sort(slots.begin(), slots.end(), slot_before);
  core::Time send_end = 0.0;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    send_end = std::max(send_end, releases[i]) + send_cost;
    if (send_end > slots[i].deadline + core::kTimeEps) return false;
  }
  order_out.clear();
  for (const Slot& s : slots) order_out.push_back(s.slave);
  return true;
}

/// Slot-selection rules for the backward construction below.
enum class BackwardRule {
  /// Commit the slave whose send could start latest right now:
  /// argmax_j min(port_time, deadline_j) - c_j. Greedy on port room.
  kLatestStart,
  /// Commit the slave with the latest chain deadline, breaking ties on the
  /// cheaper link. On computation-homogeneous platforms the chains advance
  /// in lockstep "levels", so this fills each level with the cheapest links
  /// first and spreads load across every slave that still has room — the
  /// capacity pressure the kLatestStart rule can miss.
  kLatestDeadline,
};

/// SLJFWC construction for per-slave send costs: build the schedule
/// *backwards* from M, placing each send as late as possible. At every step
/// the candidate slot of slave j is its next chain deadline M-(cnt_j+1)*p_j;
/// the rule picks which slave to commit, then the send is packed right
/// before min(port_time, deadline). The instance is feasible iff each
/// forward send starts no earlier than its task's release. The i-th send
/// placed is the (n-1-i)-th forward, so each start is checked as it is
/// placed; the order is kept only when `order_out` wants it. A slave's
/// next deadline is recomputed only when it is committed.
bool backward_feasible(const platform::Platform& platform, int n, core::Time M,
                       const std::vector<core::Time>& send_cost,
                       const std::vector<core::Time>& releases,
                       BackwardRule rule,
                       std::vector<core::SlaveId>* order_out) {
  const int m = platform.size();
  std::vector<int> cnt(static_cast<std::size_t>(m), 0);
  std::vector<core::Time> deadline;  // M - (cnt_j + 1) * p_j
  for (core::SlaveId j = 0; j < m; ++j) {
    deadline.push_back(M - platform.comp(j));
  }
  core::Time port_time = std::numeric_limits<core::Time>::infinity();
  if (order_out != nullptr) order_out->clear();

  for (int i = 0; i < n; ++i) {
    core::SlaveId best = -1;
    core::Time best_key = -std::numeric_limits<core::Time>::infinity();
    core::Time best_cost = 0.0;
    for (core::SlaveId j = 0; j < m; ++j) {
      const core::Time cost = send_cost[static_cast<std::size_t>(j)];
      const core::Time d = deadline[static_cast<std::size_t>(j)];
      const core::Time key = rule == BackwardRule::kLatestStart
                                 ? std::min(port_time, d) - cost
                                 : d;
      if (key > best_key + core::kTimeEps ||
          (key > best_key - core::kTimeEps && best >= 0 &&
           cost < best_cost - core::kTimeEps)) {
        best = j;
        best_key = key;
        best_cost = cost;
      }
    }
    const auto b = static_cast<std::size_t>(best);
    const core::Time start = std::min(port_time, deadline[b]) - send_cost[b];
    if (start < releases[static_cast<std::size_t>(n - 1 - i)] -
                    core::kTimeEps) {
      return false;
    }
    if (order_out != nullptr) order_out->push_back(best);
    ++cnt[b];
    deadline[b] = M - static_cast<core::Time>(cnt[b] + 1) * platform.comp(best);
    port_time = start;
  }
  if (order_out != nullptr) std::reverse(order_out->begin(), order_out->end());
  return true;
}

/// First-improvement local search over per-slave counts, scoring candidate
/// plans by their *replayed* makespan. The greedy backward rules can miss
/// the optimal count split when the port and a fast slave saturate
/// simultaneously (the slot choice is genuinely combinatorial); moving one
/// task between slaves and re-deriving the send order repairs exactly those
/// cases. A candidate's send order is its chain deadlines M - k p_j,
/// k = 1..counts[j], sorted in the tie order (deadline ascending, then
/// slave index).
///
/// `slots` holds the current counts' slots in that order. A move a -> b
/// drops a's earliest-deadline slot, which is the first a in `slots`, and
/// adds b's slot M - (counts[b]+1) p_b at its upper_bound, so one linear
/// pass writes the candidate's order with no sort. `slots` itself is edited
/// only when a move is accepted.
///
/// A move a -> b is not replayed when a lower bound rejects it. In the
/// replay (StepSimulator::step) a send to b starts no earlier than the first
/// release r_0, a computation no earlier than its send's end and b's
/// previous comp_end, and rounded addition is monotone; so the makespan is
/// at least fl(...fl(fl(r_0 + c_b) + p_b)... + p_b), one p_b per task b
/// holds after the move.
void improve_counts(const platform::Platform& platform,
                    const core::Workload& work, core::Time M,
                    std::vector<core::SlaveId>& assignment,
                    core::Time& makespan) {
  const int m = platform.size();
  std::vector<int> counts(static_cast<std::size_t>(m), 0);
  for (core::SlaveId j : assignment) ++counts[static_cast<std::size_t>(j)];
  std::vector<Slot> slots;
  for (core::SlaveId j = 0; j < m; ++j) {
    for (int k = 1; k <= counts[static_cast<std::size_t>(j)]; ++k) {
      slots.push_back(
          Slot{j, M - static_cast<core::Time>(k) * platform.comp(j)});
    }
  }
  std::sort(slots.begin(), slots.end(), slot_before);
  std::vector<core::SlaveId> order;

  bool improved = true;
  for (int round = 0; improved && round < 200; ++round) {
    improved = false;
    for (core::SlaveId a = 0; a < m && !improved; ++a) {
      if (counts[static_cast<std::size_t>(a)] == 0) continue;
      const auto drop =
          std::find_if(slots.begin(), slots.end(),
                       [a](const Slot& s) { return s.slave == a; });
      for (core::SlaveId b = 0; b < m && !improved; ++b) {
        if (a == b) continue;
        const int count_b = counts[static_cast<std::size_t>(b)] + 1;
        core::Time bound = work.at(0).release + platform.comm(b);
        for (int k = 0; k < count_b; ++k) bound += platform.comp(b);
        if (!(bound < makespan - core::kTimeEps)) continue;
        const Slot added{
            b, M - static_cast<core::Time>(count_b) * platform.comp(b)};
        const auto insert =
            std::upper_bound(slots.begin(), slots.end(), added, slot_before);
        order.clear();
        for (auto it = slots.begin(); it != slots.end(); ++it) {
          if (it == insert) order.push_back(b);
          if (it != drop) order.push_back(it->slave);
        }
        if (insert == slots.end()) order.push_back(b);
        const core::Time candidate =
            evaluate_assignment(platform, work, order).makespan;
        if (candidate < makespan - core::kTimeEps) {
          makespan = candidate;
          assignment = order;
          improved = true;
          --counts[static_cast<std::size_t>(a)];
          ++counts[static_cast<std::size_t>(b)];
          slots.erase(drop);
          slots.insert(std::upper_bound(slots.begin(), slots.end(), added,
                                        slot_before),
                       added);
        }
      }
    }
  }
}

OfflinePlan plan_impl(const platform::Platform& platform,
                      const std::vector<core::Time>& releases,
                      const std::vector<core::Time>& send_cost,
                      bool comm_aware) {
  OfflinePlan plan;
  const int n = static_cast<int>(releases.size());
  if (n == 0) return plan;
  if (!std::is_sorted(releases.begin(), releases.end())) {
    throw std::invalid_argument("sljf plan: releases must be sorted");
  }

  std::vector<core::Time> offsets;
  if (!comm_aware) offsets = latest_slot_offsets(platform, n);
  auto feasible = [&](core::Time M, std::vector<core::SlaveId>* order) {
    if (comm_aware) {
      // Two complementary greedy rules; accept M if either succeeds.
      return backward_feasible(platform, n, M, send_cost, releases,
                               BackwardRule::kLatestDeadline, order) ||
             backward_feasible(platform, n, M, send_cost, releases,
                               BackwardRule::kLatestStart, order);
    }
    if (order == nullptr) {
      return edf_feasible(offsets, releases, send_cost.front(), M);
    }
    return edf_feasible(top_slots_uniform(platform, n, M), releases,
                        send_cost.front(), *order);
  };

  // Bracket the optimal makespan, then bisect.
  core::Time lo = releases.back();  // no room to compute anything by then
  core::Time hi = releases.back() +
                  static_cast<core::Time>(n) *
                      (platform.max_comm() + platform.max_comp()) +
                  1.0;
  while (!feasible(hi, nullptr)) hi *= 2.0;  // paranoia; hi should suffice
  // Once mid rounds onto hi (feasible) or onto a lo that failed its probe,
  // no later iteration moves either end (~54 probes instead of 100). The
  // initial lo was never probed, so the loop probes it before stopping.
  // SLJF needs the loop too, although with one send cost its slot set and
  // order are the same at every M: M decides which offsets k p_j round to
  // one deadline fl(M - k p_j). Where a double's spacing nears the offsets
  // (releases near 2^53), the bracket's M gives a different plan than the
  // bisected one (SljfPlan.BisectedMakespanDecidesWhichOffsetsRoundTogether).
  bool lo_probed = false;
  for (int iter = 0; iter < 100; ++iter) {
    const core::Time mid = 0.5 * (lo + hi);
    if (mid == hi || (mid == lo && lo_probed)) break;
    if (feasible(mid, nullptr)) {
      hi = mid;
    } else {
      lo = mid;
      lo_probed = true;
    }
  }

  if (!feasible(hi, &plan.assignment)) {
    throw std::logic_error("sljf plan: bisection lost feasibility");
  }

  // Replay the plan forward (packed left) to report its true makespan.
  const core::Workload work = core::Workload::from_releases(releases);
  plan.makespan = evaluate_assignment(platform, work, plan.assignment).makespan;

  if (comm_aware) {
    improve_counts(platform, work, hi, plan.assignment, plan.makespan);
  }
  return plan;
}

}  // namespace

OfflinePlan sljf_plan(const platform::Platform& platform,
                      const std::vector<core::Time>& releases) {
  // SLJF models every link with the same (average) cost — by design it is
  // blind to communication heterogeneity.
  core::Time mean_c = 0.0;
  for (const platform::SlaveSpec& s : platform.slaves()) mean_c += s.comm;
  mean_c /= static_cast<core::Time>(platform.size());
  const std::vector<core::Time> send_cost(
      static_cast<std::size_t>(platform.size()), mean_c);
  return plan_impl(platform, releases, send_cost, /*comm_aware=*/false);
}

OfflinePlan sljfwc_plan(const platform::Platform& platform,
                        const std::vector<core::Time>& releases) {
  std::vector<core::Time> send_cost;
  send_cost.reserve(static_cast<std::size_t>(platform.size()));
  for (const platform::SlaveSpec& s : platform.slaves()) {
    send_cost.push_back(s.comm);
  }
  return plan_impl(platform, releases, send_cost, /*comm_aware=*/true);
}

}  // namespace msol::offline
