#pragma once

#include <memory>
#include <string>
#include <vector>

#include "algorithms/meta/meta_spec.hpp"
#include "algorithms/meta/projection.hpp"
#include "algorithms/meta/regime.hpp"
#include "algorithms/policy.hpp"
#include "core/scheduler.hpp"

namespace msol::algorithms::meta {

/// Base of the meta layer: a scheduler assembled from a MetaSpec that may
/// switch between member compositions mid-run. Campaigns dynamic_cast to
/// this to collect the `switches` summary the result sinks report.
class MetaPolicy : public core::OnlineScheduler {
 public:
  explicit MetaPolicy(MetaSpec spec)
      : spec_(std::move(spec)), name_(meta::to_string(spec_)) {}

  std::string name() const override { return name_; }
  const MetaSpec& spec() const { return spec_; }

  /// How many times the active member changed between consecutive
  /// decisions this run; reset() zeroes it.
  long long switches() const { return switches_; }

 protected:
  MetaSpec spec_;
  std::string name_;
  long long switches_ = 0;
};

/// portfolio:<spec>;...+horizon:<h> — at every decision point each member
/// spec is forward-simulated on a projection of the live engine for up to
/// `horizon` commits, and the member with the best projection (most
/// commits, then lowest projected makespan, ties to the lowest index)
/// supplies the committed decision.
///
/// Each member evaluation is a pure function of the engine state; a
/// tie:rng member's stream is derived counter-style — fork(member index)
/// off its spec seed, then the decision ordinal — so runs are deterministic
/// and thread-count independent.
///
/// Evaluation is delta-driven: one persistent IncrementalProjection
/// subscribes to the engine's delta feed, sync() patches it forward per
/// decision, and the cached member policies are reseeded (not
/// reconstructed) per evaluation. decide() therefore needs a OnePortEngine
/// (every run path hands it one: simulate(), ShardedEngine's shards, the
/// adversary) and throws std::logic_error on any other view. Its
/// fresh-snapshot oracle, RebuildPortfolio, lives in the test-only library
/// (tests/oracles/).
class PortfolioPolicy final : public MetaPolicy {
 public:
  explicit PortfolioPolicy(MetaSpec spec);

  core::Decision decide(const core::EngineView& engine) override;
  void reset() override;

  /// Decisions taken this run (the bench's decisions/sec numerator).
  long long decisions() const { return decisions_; }
  /// The persistent projection (null before the first decision) —
  /// diagnostics for the bench's resync-vs-rebuild columns.
  const IncrementalProjection* projection() const {
    return incremental_.get();
  }

 private:
  long long decisions_ = 0;
  int last_choice_ = -1;
  /// The shared persistent projection and the reseed-per-evaluation member
  /// cache (see the class comment).
  std::unique_ptr<IncrementalProjection> incremental_;
  std::vector<std::unique_ptr<ComposedPolicy>> members_;
};

/// hedge:<specA>;<specB>+window:<n>+hyst:<k> — member A (calm) runs until
/// the regime detector reports stress (bursty arrivals or availability
/// churn, debounced by the hysteresis), then member B takes over; the hedge
/// falls back to A once the window decays to calm. Switches happen at
/// decision (= commit) boundaries only. The inactive member's internal
/// state is frozen while benched — cyclic cursors and stride credits resume
/// where they left off.
class HedgePolicy final : public MetaPolicy {
 public:
  explicit HedgePolicy(MetaSpec spec);

  core::Decision decide(const core::EngineView& engine) override;
  void on_task_released(const core::EngineView& engine,
                        core::TaskId task) override;
  void reset() override;

  int active_member() const { return active_; }
  Regime regime() const { return detector_.regime(); }

 private:
  std::vector<std::unique_ptr<ComposedPolicy>> members_;
  RegimeDetector detector_;
  int active_ = 0;
};

/// Builds the meta policy a MetaSpec describes (registry hook).
std::unique_ptr<core::OnlineScheduler> make_meta_policy(const MetaSpec& spec);

}  // namespace msol::algorithms::meta
