#include "algorithms/policy.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <variant>

#include "offline/deadline_solver.hpp"

namespace msol::algorithms {

std::vector<double> wrr_shares(const platform::Platform& platform) {
  std::vector<double> x(static_cast<std::size_t>(platform.size()), 0.0);
  double port_budget = 1.0;  // seconds of port time per second
  for (core::SlaveId j : platform.order_by_comm()) {
    if (port_budget <= 0.0) break;
    const double full_rate = 1.0 / platform.comp(j);
    const double port_cost = platform.comm(j) * full_rate;
    if (port_cost <= port_budget) {
      x[static_cast<std::size_t>(j)] = full_rate;
      port_budget -= port_cost;
    } else {
      x[static_cast<std::size_t>(j)] = port_budget / platform.comm(j);
      port_budget = 0.0;
    }
  }
  return x;
}

namespace {

std::vector<double> normalized_shares(const platform::Platform& platform) {
  std::vector<double> share = wrr_shares(platform);
  const double total = std::accumulate(share.begin(), share.end(), 0.0);
  for (double& s : share) s /= total;
  return share;
}

/// Best-estimated-completion slave among an explicit candidate set, with
/// list scheduling's exact tie-break (a later slave wins only when strictly
/// better by more than kTimeEps). The same scan EngineView::
/// best_completion_slave runs over the full available set.
core::SlaveId best_completion_in(const core::EngineView& engine,
                                 core::TaskId task,
                                 const std::vector<core::SlaveId>& candidates) {
  thread_local std::vector<core::Time> probe;
  probe.resize(candidates.size());
  engine.completion_if_assigned_batch(task, candidates.data(),
                                      static_cast<int>(candidates.size()),
                                      probe.data());
  core::SlaveId best = -1;
  core::Time best_completion = 0.0;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (best < 0 || probe[i] < best_completion - core::kTimeEps) {
      best = candidates[i];
      best_completion = probe[i];
    }
  }
  return best;
}

// ---------------------------------------------------------------- filters --

/// The first slave of order[start..], then order[..start), that `admits`;
/// -1 when it admits none.
template <typename Admits>
core::SlaveId first_in_cycle(const std::vector<core::SlaveId>& order,
                             std::size_t start, Admits admits) {
  for (std::size_t k = start; k < order.size(); ++k) {
    if (admits(order[k])) return order[k];
  }
  for (std::size_t k = 0; k < start; ++k) {
    if (admits(order[k])) return order[k];
  }
  return -1;
}

/// Base of the filters that test each slave on its own (all, free):
/// Derived::admission(engine, f) calls f with the test, read from the
/// view's dense arrays, so collect() and the fixed-order walk admit the
/// same slaves.
template <typename Derived>
class PerSlaveFilter : public CandidateFilter {
 public:
  void collect(const core::EngineView& engine, core::TaskId,
               std::vector<core::SlaveId>& out) override {
    Derived::admission(engine, [&](auto admits) {
      const core::SlaveId m = engine.platform().size();
      for (core::SlaveId j = 0; j < m; ++j) {
        if (admits(j)) out.push_back(j);
      }
    });
  }
  bool first_admitted(const core::EngineView& engine,
                      const std::vector<core::SlaveId>& order,
                      std::size_t start, core::SlaveId& out) override {
    Derived::admission(engine, [&](auto admits) {
      out = first_in_cycle(order, start, admits);
    });
    return true;
  }
};

class AllFilter : public PerSlaveFilter<AllFilter> {
 public:
  void collect(const core::EngineView& engine, core::TaskId task,
               std::vector<core::SlaveId>& out) override {
    const core::SlaveStateView s = engine.slave_state();
    if (s.online == nullptr) {
      // Everything online: bulk-fill 0..m-1 instead of m capacity-checked
      // push_backs.
      const std::size_t base = out.size();
      out.resize(base + static_cast<std::size_t>(s.m));
      std::iota(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(), 0);
      return;
    }
    PerSlaveFilter::collect(engine, task, out);
  }
  bool pass_through() const override { return true; }

  template <typename F>
  static void admission(const core::EngineView& engine, F&& f) {
    const core::SlaveStateView s = engine.slave_state();
    f([&](core::SlaveId j) { return s.is_online(j); });
  }
};

class FreeFilter : public PerSlaveFilter<FreeFilter> {
 public:
  template <typename F>
  static void admission(const core::EngineView& engine, F&& f) {
    // slave_free_now(j) is max(now, ready[j]) <= now + eps, which on the
    // raw array reduces to ready[j] <= now + eps.
    const core::SlaveStateView s = engine.slave_state();
    const core::Time cutoff = engine.now() + core::kTimeEps;
    f([&](core::SlaveId j) {
      return s.is_online(j) && s.ready[j] <= cutoff;
    });
  }
};

class ThrottleFilter : public CandidateFilter {
 public:
  explicit ThrottleFilter(int max_queue) : max_queue_(max_queue) {}
  void collect(const core::EngineView& engine, core::TaskId,
               std::vector<core::SlaveId>& out) override {
    const core::SlaveStateView s = engine.slave_state();
    for (core::SlaveId j = 0; j < s.m; ++j) {
      if (s.is_online(j) && engine.tasks_in_system(j) < max_queue_) {
        out.push_back(j);
      }
    }
  }

 private:
  int max_queue_;
};

/// Weighted quota: slave j may hold at most share_j * (committed + slack)
/// of the committed stream, shares from the throughput LP. Keeps any
/// ranker's long-run allocation proportional without dictating order; by
/// pigeonhole at least one support slave is always under quota, so on
/// static (always-on) platforms the filter can never starve the master.
class QuotaFilter : public CandidateFilter {
 public:
  explicit QuotaFilter(double slack) : slack_(slack) {}

  void collect(const core::EngineView& engine, core::TaskId,
               std::vector<core::SlaveId>& out) override {
    if (share_.empty()) {
      share_ = normalized_shares(engine.platform());
      counts_.assign(share_.size(), 0);
    }
    const double budget = static_cast<double>(total_) + slack_;
    const core::SlaveStateView s = engine.slave_state();
    for (core::SlaveId j = 0; j < s.m; ++j) {
      const auto idx = static_cast<std::size_t>(j);
      if (s.is_online(j) && share_[idx] > 0.0 &&
          static_cast<double>(counts_[idx]) < share_[idx] * budget) {
        out.push_back(j);
      }
    }
  }
  void on_commit(core::SlaveId slave) override {
    ++counts_[static_cast<std::size_t>(slave)];
    ++total_;
  }
  void reset() override {
    share_.clear();
    counts_.clear();
    total_ = 0;
  }

 private:
  double slack_;
  std::vector<double> share_;      ///< normalized to sum 1 (lazy)
  std::vector<long long> counts_;  ///< committed tasks per slave
  long long total_ = 0;
};

// ---------------------------------------------------------------- rankers --

class CompletionRanker : public Ranker {
 public:
  double eps() const override { return core::kTimeEps; }
  void score(const core::EngineView& engine, core::TaskId task,
             const std::vector<core::SlaveId>& candidates,
             std::vector<double>& scores) override {
    engine.completion_if_assigned_batch(task, candidates.data(),
                                        static_cast<int>(candidates.size()),
                                        scores.data());
  }
};

class ReadyRanker : public Ranker {
 public:
  double eps() const override { return core::kTimeEps; }
  void score(const core::EngineView& engine, core::TaskId,
             const std::vector<core::SlaveId>& candidates,
             std::vector<double>& scores) override {
    const core::SlaveStateView s = engine.slave_state();
    const core::Time now = engine.now();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      scores[i] = std::max(now, s.ready[candidates[i]]);
    }
  }
};

/// comp / comm / comm+comp static costs (exact comparisons, like SRPT's
/// "fastest free slave" scan). The exact scan's winner is the admitted
/// slave minimizing (key, index), or (key, c_j, index) under tie:fastlink,
/// so the fixed order is the stable sort on that key.
class StaticRanker : public Ranker {
 public:
  enum class Key { kComp, kComm, kCommComp };
  StaticRanker(Key key, bool fastlink) : key_(key), fastlink_(fastlink) {}
  void score(const core::EngineView& engine, core::TaskId,
             const std::vector<core::SlaveId>& candidates,
             std::vector<double>& scores) override {
    keys(engine.platform(), candidates, scores);
  }

  const std::vector<core::SlaveId>* fixed_order(
      const platform::Platform& platform, std::size_t& start) override {
    if (order_uid_ != platform.uid()) {
      const auto m = static_cast<std::size_t>(platform.size());
      std::vector<core::SlaveId> ids(m);
      std::iota(ids.begin(), ids.end(), 0);
      std::vector<double> key(m);
      keys(platform, ids, key);
      const core::Time* comm = platform.comm_data();
      std::stable_sort(ids.begin(), ids.end(),
                       [&](core::SlaveId a, core::SlaveId b) {
                         const auto ia = static_cast<std::size_t>(a);
                         const auto ib = static_cast<std::size_t>(b);
                         if (key[ia] != key[ib]) return key[ia] < key[ib];
                         return fastlink_ && comm[a] < comm[b];
                       });
      order_ = std::move(ids);
      order_uid_ = platform.uid();
    }
    start = 0;
    return &order_;
  }

 private:
  void keys(const platform::Platform& platform,
            const std::vector<core::SlaveId>& candidates,
            std::vector<double>& scores) const {
    // Gather from the platform's SoA mirrors (exact copies of the SlaveSpec
    // fields) with the key switch hoisted: no bounds-checked at() call per
    // candidate.
    const core::Time* comm = platform.comm_data();
    const core::Time* comp = platform.comp_data();
    const std::size_t n = candidates.size();
    switch (key_) {
      case Key::kComp:
        for (std::size_t i = 0; i < n; ++i) scores[i] = comp[candidates[i]];
        break;
      case Key::kComm:
        for (std::size_t i = 0; i < n; ++i) scores[i] = comm[candidates[i]];
        break;
      case Key::kCommComp:
        for (std::size_t i = 0; i < n; ++i) {
          scores[i] = comm[candidates[i]] + comp[candidates[i]];
        }
        break;
    }
  }

  Key key_;
  bool fastlink_;
  std::vector<core::SlaveId> order_;  ///< fixed_order() of platform order_uid_
  std::uint64_t order_uid_ = 0;
};

class QueueRanker : public Ranker {
 public:
  void score(const core::EngineView& engine, core::TaskId,
             const std::vector<core::SlaveId>& candidates,
             std::vector<double>& scores) override {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      scores[i] = static_cast<double>(engine.tasks_in_system(candidates[i]));
    }
  }
};

/// Learned linear blend of the per-candidate features the other rankers use
/// individually: score = w0 * completion_if_assigned + w1 * c_j + w2 * p_j
/// + w3 * tasks_in_system + w4 * slave_ready_at, weights from
/// rank:linear:<w0>:...:<w4> (experiments/spec_fit.hpp regresses them from
/// sweep CSVs). With w = (1,0,0,0,0) the scan reproduces list scheduling.
class LinearRanker : public Ranker {
 public:
  explicit LinearRanker(std::vector<double> w) : w_(std::move(w)) {
    if (static_cast<int>(w_.size()) != kLinearFeatureCount) {
      throw std::invalid_argument(
          "linear ranker: expected " + std::to_string(kLinearFeatureCount) +
          " weights");
    }
  }
  double eps() const override { return core::kTimeEps; }
  void score(const core::EngineView& engine, core::TaskId task,
             const std::vector<core::SlaveId>& candidates,
             std::vector<double>& scores) override {
    const platform::Platform& plat = engine.platform();
    completions_.resize(candidates.size());
    engine.completion_if_assigned_batch(task, candidates.data(),
                                        static_cast<int>(candidates.size()),
                                        completions_.data());
    const core::SlaveStateView s = engine.slave_state();
    const core::Time now = engine.now();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const core::SlaveId j = candidates[i];
      scores[i] = w_[0] * completions_[i] +
                  w_[1] * plat.comm(j) + w_[2] * plat.comp(j) +
                  w_[3] * static_cast<double>(engine.tasks_in_system(j)) +
                  w_[4] * std::max(now, s.ready[j]);
    }
  }

 private:
  std::vector<double> w_;
  std::vector<core::Time> completions_;  ///< batch-probe scratch
};

/// All-equal scores: selection is pure tie-break (RANDOM = const + rng).
class ConstRanker : public Ranker {
 public:
  void score(const core::EngineView&, core::TaskId,
             const std::vector<core::SlaveId>& candidates,
             std::vector<double>& scores) override {
    std::fill(scores.begin(), scores.begin() +
                                  static_cast<std::ptrdiff_t>(candidates.size()),
              0.0);
  }
};

/// Stride scheduling on the throughput-LP shares. Every slave accrues its
/// share per scored decision (offline slaves keep their long-run share);
/// the winner pays one task on commit. A gate that rejects the proposal
/// leaves the round's accrual in place — the share is per decision cycle,
/// not per send.
class WrrRanker : public Ranker {
 public:
  double eps() const override { return 1e-15; }
  void score(const core::EngineView& engine, core::TaskId,
             const std::vector<core::SlaveId>& candidates,
             std::vector<double>& scores) override {
    if (share_.empty()) {
      share_ = normalized_shares(engine.platform());
      credit_.assign(share_.size(), 0.0);
    }
    for (std::size_t j = 0; j < share_.size(); ++j) credit_[j] += share_[j];
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      scores[i] = -credit_[static_cast<std::size_t>(candidates[i])];
    }
  }
  void on_commit(core::SlaveId slave) override {
    credit_[static_cast<std::size_t>(slave)] -= 1.0;
  }
  void reset() override {
    share_.clear();
    credit_.clear();
  }

 private:
  std::vector<double> share_;
  std::vector<double> credit_;
};

/// RR/RRC/RRP's rotating cursor: score = distance ahead of the cursor in
/// the prescribed cycle, so the nearest available slave wins and offline
/// slaves forfeit their turn. The cursor lands just past the winner.
class CyclicRanker : public Ranker {
 public:
  enum class Order { kCommPlusComp, kComm, kComp };
  explicit CyclicRanker(Order order) : order_(order) {}

  void score(const core::EngineView& engine, core::TaskId,
             const std::vector<core::SlaveId>& candidates,
             std::vector<double>& scores) override {
    build_cycle(engine.platform());
    const std::size_t size = cycle_.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::size_t pos = pos_[static_cast<std::size_t>(candidates[i])];
      scores[i] = static_cast<double>((pos + size - cursor_) % size);
    }
  }
  /// Distances ahead of the cursor are distinct, so the scan's winner is
  /// the first admitted slave of the cycle walked from the cursor.
  const std::vector<core::SlaveId>* fixed_order(
      const platform::Platform& platform, std::size_t& start) override {
    build_cycle(platform);
    start = cursor_;
    return &cycle_;
  }
  void on_commit(core::SlaveId slave) override {
    cursor_ = (pos_[static_cast<std::size_t>(slave)] + 1) % cycle_.size();
  }
  /// The cycle depends on the platform only and survives the reset.
  void reset() override { cursor_ = 0; }

 private:
  void build_cycle(const platform::Platform& platform) {
    if (cycle_uid_ == platform.uid()) return;
    switch (order_) {
      case Order::kCommPlusComp:
        cycle_ = platform.order_by_comm_plus_comp();
        break;
      case Order::kComm: cycle_ = platform.order_by_comm(); break;
      case Order::kComp: cycle_ = platform.order_by_comp(); break;
    }
    pos_.assign(cycle_.size(), 0);
    for (std::size_t i = 0; i < cycle_.size(); ++i) {
      pos_[static_cast<std::size_t>(cycle_[i])] = i;
    }
    cycle_uid_ = platform.uid();
    cursor_ = 0;
  }

  Order order_;
  std::vector<core::SlaveId> cycle_;
  std::vector<std::size_t> pos_;  ///< slave id -> position in cycle_
  std::uint64_t cycle_uid_ = 0;   ///< Platform::uid() cycle_ was built for
  std::size_t cursor_ = 0;
};

/// SLJF / SLJFWC plan cursor: the first K sends follow the backwards
/// deadline construction (computed once, at the first decision), each later
/// send falls back to list scheduling. A planned slave that is filtered
/// out spends its slot on the best-completion substitute; if nothing is
/// assignable the slot is kept (the cursor only advances on commit).
class PlanRanker : public Ranker {
 public:
  PlanRanker(bool comm_aware, int lookahead)
      : comm_aware_(comm_aware), lookahead_(lookahead) {
    if (lookahead_ < 0 || lookahead_ > kMaxLookahead) {
      throw std::invalid_argument("plan ranker: lookahead must be in [0, " +
                                  std::to_string(kMaxLookahead) + "]");
    }
  }

  double eps() const override { return core::kTimeEps; }
  void score(const core::EngineView& engine, core::TaskId task,
             const std::vector<core::SlaveId>& candidates,
             std::vector<double>& scores) override {
    // Unreachable through ComposedPolicy (direct() always claims the
    // decision) but kept meaningful: the LS fallback costs.
    engine.completion_if_assigned_batch(task, candidates.data(),
                                        static_cast<int>(candidates.size()),
                                        scores.data());
  }

  bool direct(const core::EngineView& engine, core::TaskId task,
              const std::vector<core::SlaveId>& candidates, bool pass_through,
              core::SlaveId& out) override {
    if (!planned_) {
      planned_ = true;
      if (lookahead_ > 0) {
        // Plan the first K sends as if the whole batch were available at
        // the planning instant: the on-line wrapper cannot know future
        // release times, so the plan is a pure assignment pattern and the
        // engine's actual timing applies when tasks really arrive.
        const std::vector<core::Time> releases(
            static_cast<std::size_t>(lookahead_), engine.now());
        const offline::OfflinePlan plan =
            comm_aware_ ? offline::sljfwc_plan(engine.platform(), releases)
                        : offline::sljf_plan(engine.platform(), releases);
        plan_ = plan.assignment;
      }
    }
    if (sent_ < plan_.size()) {
      const core::SlaveId planned = plan_[sent_];
      if (std::binary_search(candidates.begin(), candidates.end(), planned)) {
        out = planned;
        return true;
      }
    }
    out = pass_through ? engine.best_completion_slave(task)
                       : best_completion_in(engine, task, candidates);
    return true;
  }
  void on_commit(core::SlaveId) override { ++sent_; }
  void reset() override {
    planned_ = false;
    plan_.clear();
    sent_ = 0;
  }

 private:
  bool comm_aware_;
  int lookahead_;
  bool planned_ = false;
  std::vector<core::SlaveId> plan_;
  std::size_t sent_ = 0;  ///< committed sends so far (plan cursor)
};

// ------------------------------------------------------------------ gates --

class AlwaysGate : public CommitGate {};

/// Defer until at least `threshold` tasks are pending — unless every
/// remaining task has already been released, in which case the backlog can
/// only shrink and waiting would deadlock the engine.
class BatchGate : public CommitGate {
 public:
  explicit BatchGate(int threshold) : threshold_(threshold) {}
  core::Decision apply(const core::EngineView& engine,
                       const core::Assign& proposed) override {
    if (engine.pending_count() >= threshold_) return proposed;
    const int unreleased = engine.total_tasks() -
                           engine.completed_or_committed() -
                           engine.pending_count();
    if (unreleased <= 0) return proposed;
    return core::Defer{};
  }

 private:
  int threshold_;
};

/// Enforces a minimum gap between consecutive sends with WaitUntil — the
/// fully general stalling the paper's proofs permit. The wake time is
/// always strictly in the future, so the engine cannot degrade it to a
/// deadlocking Defer.
class PaceGate : public CommitGate {
 public:
  explicit PaceGate(core::Time gap) : gap_(gap) {}
  core::Decision apply(const core::EngineView& engine,
                       const core::Assign& proposed) override {
    if (armed_ && engine.now() < last_send_ + gap_ - core::kTimeEps) {
      return core::WaitUntil{last_send_ + gap_};
    }
    return proposed;
  }
  void on_commit(const core::EngineView& engine) override {
    armed_ = true;
    last_send_ = engine.now();
  }
  void reset() override { armed_ = false; }

 private:
  core::Time gap_;
  bool armed_ = false;
  core::Time last_send_ = 0.0;
};

std::unique_ptr<CandidateFilter> make_filter(const PolicySpec& spec) {
  switch (spec.filter) {
    case FilterKind::kAll: return std::make_unique<AllFilter>();
    case FilterKind::kFree: return std::make_unique<FreeFilter>();
    case FilterKind::kThrottle:
      return std::make_unique<ThrottleFilter>(spec.throttle_k);
    case FilterKind::kQuota:
      return std::make_unique<QuotaFilter>(spec.quota_slack);
  }
  throw std::logic_error("make_filter: unknown filter kind");
}

std::unique_ptr<Ranker> make_ranker(const PolicySpec& spec) {
  const bool fastlink = spec.tie == TieKind::kFastLink;
  switch (spec.ranker) {
    case RankerKind::kCompletion: return std::make_unique<CompletionRanker>();
    case RankerKind::kReady: return std::make_unique<ReadyRanker>();
    case RankerKind::kComp:
      return std::make_unique<StaticRanker>(StaticRanker::Key::kComp, fastlink);
    case RankerKind::kComm:
      return std::make_unique<StaticRanker>(StaticRanker::Key::kComm, fastlink);
    case RankerKind::kCommComp:
      return std::make_unique<StaticRanker>(StaticRanker::Key::kCommComp,
                                            fastlink);
    case RankerKind::kQueue: return std::make_unique<QueueRanker>();
    case RankerKind::kConst: return std::make_unique<ConstRanker>();
    case RankerKind::kWrr: return std::make_unique<WrrRanker>();
    case RankerKind::kCyclicCommComp:
      return std::make_unique<CyclicRanker>(CyclicRanker::Order::kCommPlusComp);
    case RankerKind::kCyclicComm:
      return std::make_unique<CyclicRanker>(CyclicRanker::Order::kComm);
    case RankerKind::kCyclicComp:
      return std::make_unique<CyclicRanker>(CyclicRanker::Order::kComp);
    case RankerKind::kPlanSljf:
      return std::make_unique<PlanRanker>(false, spec.lookahead);
    case RankerKind::kPlanSljfwc:
      return std::make_unique<PlanRanker>(true, spec.lookahead);
    case RankerKind::kLinear:
      return std::make_unique<LinearRanker>(spec.linear_w);
  }
  throw std::logic_error("make_ranker: unknown ranker kind");
}

std::unique_ptr<CommitGate> make_gate(const PolicySpec& spec) {
  switch (spec.gate) {
    case GateKind::kAlways: return std::make_unique<AlwaysGate>();
    case GateKind::kBatch: return std::make_unique<BatchGate>(spec.batch_n);
    case GateKind::kPace: return std::make_unique<PaceGate>(spec.pace_dt);
  }
  throw std::logic_error("make_gate: unknown gate kind");
}

}  // namespace

// --------------------------------------------------------- ComposedPolicy --

ComposedPolicy::ComposedPolicy(const PolicySpec& spec)
    : spec_(spec),
      filter_(make_filter(spec)),
      ranker_(make_ranker(spec)),
      gate_(make_gate(spec)),
      tie_rng_(spec.seed) {
  if (!(spec_.eps >= 0.0)) {  // NaN too: it would leave the band empty
    throw std::invalid_argument("ComposedPolicy: eps must be >= 0");
  }
  const std::string legacy = canonical_name(spec_);
  name_ = legacy.empty() ? to_string(spec_) : legacy;
  exact_scan_ = spec_.tie != TieKind::kRng && spec_.eps == 0.0;
  bulk_completion_path_ = spec_.filter == FilterKind::kAll &&
                          spec_.ranker == RankerKind::kCompletion &&
                          spec_.tie == TieKind::kIndex && exact_scan_;
}

ComposedPolicy::~ComposedPolicy() = default;

void ComposedPolicy::reset() {
  filter_->reset();
  ranker_->reset();
  gate_->reset();
  tie_rng_ = util::Rng(spec_.seed);
}

core::SlaveId ComposedPolicy::select(const core::EngineView& engine) {
  const std::size_t n = candidates_.size();
  if (exact_scan_) {
    // Legacy scan: a later candidate wins only by beating the incumbent by
    // more than the ranker's tolerance — or, under tie:fastlink, by a
    // cheaper link within it (SRPT's comp-then-comm rule at eps 0).
    const platform::Platform& plat = engine.platform();
    const double eps = ranker_->eps();
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (scores_[i] < scores_[best] - eps) {
        best = i;
      } else if (spec_.tie == TieKind::kFastLink &&
                 scores_[i] <= scores_[best] + eps &&
                 plat.comm(candidates_[i]) < plat.comm(candidates_[best])) {
        best = i;
      }
    }
    return candidates_[best];
  }

  // Banded mode: everything within a (1 + eps) factor of the exact best is
  // tied (the RLS near-tie band; eps 0 keeps exact ties only). The band
  // widens *upward* from the best score — |best| rather than best keeps it
  // non-empty for negative scores (WrrRanker emits -credit) while staying
  // exactly RLS's best*(1+theta) for the non-negative time scores.
  double best_score = scores_[0];
  for (std::size_t i = 1; i < n; ++i) {
    if (scores_[i] < best_score) best_score = scores_[i];
  }
  const double cutoff =
      best_score + std::abs(best_score) * spec_.eps + core::kTimeEps;
  band_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (scores_[i] <= cutoff) band_.push_back(i);
  }
  switch (spec_.tie) {
    case TieKind::kIndex: return candidates_[band_[0]];
    case TieKind::kFastLink: {
      const platform::Platform& plat = engine.platform();
      std::size_t best = band_[0];
      for (std::size_t i = 1; i < band_.size(); ++i) {
        if (plat.comm(candidates_[band_[i]]) < plat.comm(candidates_[best])) {
          best = band_[i];
        }
      }
      return candidates_[best];
    }
    case TieKind::kRng: {
      const std::size_t pick = static_cast<std::size_t>(tie_rng_.uniform_int(
          0, static_cast<std::int64_t>(band_.size()) - 1));
      return candidates_[band_[pick]];
    }
  }
  throw std::logic_error("ComposedPolicy: unknown tie kind");
}

bool ComposedPolicy::walk_fixed_order(const core::EngineView& engine,
                                      core::SlaveId& chosen) {
  if (!exact_scan_) return false;
  std::size_t start = 0;
  const std::vector<core::SlaveId>* order =
      ranker_->fixed_order(engine.platform(), start);
  return order != nullptr &&
         filter_->first_admitted(engine, *order, start, chosen);
}

core::Decision ComposedPolicy::decide(const core::EngineView& engine) {
  const core::TaskId task = engine.pending_front();
  core::SlaveId chosen = -1;
  if (bulk_completion_path_) {
    chosen = engine.best_completion_slave(task);
  } else if (!walk_fixed_order(engine, chosen)) {
    candidates_.clear();
    filter_->collect(engine, task, candidates_);
    if (candidates_.empty()) return core::Defer{};
    if (!ranker_->direct(engine, task, candidates_, filter_->pass_through(),
                         chosen)) {
      scores_.resize(candidates_.size());
      ranker_->score(engine, task, candidates_, scores_);
      chosen = select(engine);
    }
  }
  if (chosen < 0) return core::Defer{};

  core::Decision decision = gate_->apply(engine, core::Assign{task, chosen});
  if (std::holds_alternative<core::Assign>(decision)) {
    filter_->on_commit(chosen);
    ranker_->on_commit(chosen);
    gate_->on_commit(engine);
  }
  return decision;
}

}  // namespace msol::algorithms
