#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algorithms/policy_spec.hpp"
#include "core/engine_view.hpp"
#include "core/scheduler.hpp"
#include "util/rng.hpp"

namespace msol::algorithms {

/// Throughput-LP shares for a platform under the one-port model
/// (tasks/s per slave):
///
///     maximize sum_j x_j   s.t.  sum_j c_j x_j <= 1,  x_j <= 1/p_j
///
/// Cheapest links saturate first; slaves outside the LP support get 0.
/// The WRR ranker stride-schedules on these, the quota filter caps
/// per-slave admission with them, and capacity-planning callers read them
/// directly.
std::vector<double> wrr_shares(const platform::Platform& platform);

/// ---------------------------------------------------------------------
/// The four component interfaces a ComposedPolicy is assembled from.
/// Decomposition contract (decide() below): filter -> ranker -> tie-break
/// -> gate, with on_commit() fanned out to the stateful components only
/// when the gate actually commits the assignment.
/// ---------------------------------------------------------------------

/// Chooses which slaves may receive the front task. Implementations append
/// passing slave ids in ascending order (selection scan order is part of
/// the tie-break semantics).
class CandidateFilter {
 public:
  virtual ~CandidateFilter() = default;
  virtual void collect(const core::EngineView& engine, core::TaskId task,
                       std::vector<core::SlaveId>& out) = 0;
  /// True when collect() passes exactly the available set. The SLJF plan
  /// ranker's list-scheduling fallback then takes the engine's bulk
  /// best_completion_slave() probe instead of probing the collected set.
  /// (The fixed-order walk does not read this: it asks first_admitted().)
  virtual bool pass_through() const { return false; }
  /// Filters that test each slave on its own (all, free) can admit one
  /// slave at a time: they set `out` to the first slave they admit in
  /// order[start..] then order[..start) (-1 when none) and return true. The
  /// default declines, and the policy collects the whole set instead.
  virtual bool first_admitted(const core::EngineView& engine,
                              const std::vector<core::SlaveId>& order,
                              std::size_t start, core::SlaveId& out) {
    (void)engine;
    (void)order;
    (void)start;
    (void)out;
    return false;
  }
  virtual void on_commit(core::SlaveId slave) { (void)slave; }
  virtual void reset() {}
};

/// Scores the surviving candidates (lower is better). Stateful rankers
/// (cyclic cursors, stride credits, plan cursors) advance in on_commit().
class Ranker {
 public:
  virtual ~Ranker() = default;
  /// Comparison tolerance for the selection scan: two scores within eps()
  /// of each other count as tied. Time-valued rankers use core::kTimeEps.
  virtual double eps() const { return 0.0; }
  /// Fills scores[i] for candidates[i]; called once per decision.
  virtual void score(const core::EngineView& engine, core::TaskId task,
                     const std::vector<core::SlaveId>& candidates,
                     std::vector<double>& scores) = 0;
  /// Rankers whose choice is not a per-slave score (the SLJF plan cursor)
  /// pick directly: return true and set `out` (-1 = defer). The default
  /// declines, routing selection through score() + tie-break.
  virtual bool direct(const core::EngineView& engine, core::TaskId task,
                      const std::vector<core::SlaveId>& candidates,
                      bool pass_through, core::SlaveId& out) {
    (void)engine;
    (void)task;
    (void)candidates;
    (void)pass_through;
    (void)out;
    return false;
  }
  /// Rankers whose exact scan always picks the first candidate in a fixed
  /// order of the platform's slaves (a static key; the cycle from the
  /// cursor) return that order and set `start` to the walk's first position
  /// (the walk wraps). The order is kept across reset(): it depends on the
  /// platform only. The default returns null: selection scores and scans.
  virtual const std::vector<core::SlaveId>* fixed_order(
      const platform::Platform& platform, std::size_t& start) {
    (void)platform;
    (void)start;
    return nullptr;
  }
  virtual void on_commit(core::SlaveId slave) { (void)slave; }
  virtual void reset() {}
};

/// Decides whether the selected assignment is committed now, deferred to
/// the next event, or paced with a WaitUntil.
class CommitGate {
 public:
  virtual ~CommitGate() = default;
  virtual core::Decision apply(const core::EngineView& engine,
                               const core::Assign& proposed) {
    (void)engine;
    return proposed;
  }
  virtual void on_commit(const core::EngineView& engine) { (void)engine; }
  virtual void reset() {}
};

/// A scheduler assembled from the four components a PolicySpec names.
/// All 11 legacy registry policies are canonical compositions and run
/// bit-identically through this path (pinned by the golden traces and the
/// differential suite); new heuristics are one-line specs.
///
/// decide():
///   1. filter collects the candidate set (empty -> Defer),
///   2. the ranker scores it (or picks directly),
///   3. tie-break selects: with eps == 0 a legacy exact scan (lowest index
///      wins near-ties; tie:fastlink prefers the smaller c_j among scores
///      within the ranker's tolerance), with eps > 0 or tie:rng a banded
///      mode — every candidate within a (1 + eps) factor of the best is
///      tied, and tie:index takes the first, tie:fastlink the cheapest
///      link, tie:rng a uniform seeded draw. Under the exact scan, a ranker
///      with a fixed_order() (RR/RRC/RRP's cycle, SRPT's and the other
///      static keys' sort) and a per-slave filter (all, free) skip steps 1-3:
///      the policy walks the order and takes the first slave the filter
///      admits (none -> Defer), the same slave the scan would pick, in
///      O(walk) instead of O(m),
///   4. the gate commits, defers, or paces; stateful components observe
///      the commit only if the gate lets it through.
class ComposedPolicy : public core::OnlineScheduler {
 public:
  explicit ComposedPolicy(const PolicySpec& spec);
  ~ComposedPolicy() override;

  /// The legacy registry name when the composition is canonical for one
  /// ("LS", "SRPT", "LS-K3", ...), else the canonical spec string.
  std::string name() const override { return name_; }
  const PolicySpec& spec() const { return spec_; }

  core::Decision decide(const core::EngineView& engine) override;
  void reset() override;

  /// reset() with a replacement seed: afterwards the policy decides exactly
  /// as one freshly constructed from the spec with that seed (the only seed
  /// consumer is the tie:rng stream, which reset() rebuilds from spec_.seed;
  /// reset-equals-fresh for the other components is the engine-reuse
  /// invariant the differential fuzz suite pins). The cached name() keeps
  /// the construction-time seed — callers that reseed per evaluation
  /// (PortfolioPolicy's member cache) never read it.
  void reseed(std::uint64_t seed) {
    spec_.seed = seed;
    reset();
  }

 private:
  core::SlaveId select(const core::EngineView& engine);
  /// Step 3's fixed-order walk; false when the ranker or filter declines.
  bool walk_fixed_order(const core::EngineView& engine, core::SlaveId& chosen);

  PolicySpec spec_;
  std::string name_;
  std::unique_ptr<CandidateFilter> filter_;
  std::unique_ptr<Ranker> ranker_;
  std::unique_ptr<CommitGate> gate_;
  util::Rng tie_rng_;
  /// Plain LS composition (pass-through filter, completion rank, index
  /// tie, exact scan): one bulk best_completion_slave() probe instead of
  /// m virtual probes — the optimization the monolithic LS had.
  bool bulk_completion_path_ = false;
  /// eps == 0 and no tie:rng: selection is the legacy exact scan.
  bool exact_scan_ = false;

  // Per-decision scratch, reused across calls.
  std::vector<core::SlaveId> candidates_;
  std::vector<double> scores_;
  std::vector<std::size_t> band_;
};

}  // namespace msol::algorithms
