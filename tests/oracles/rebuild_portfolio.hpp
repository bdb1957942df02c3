#pragma once

#include <string>

#include "algorithms/meta/meta_spec.hpp"
#include "core/engine_view.hpp"
#include "core/scheduler.hpp"

namespace msol::algorithms::meta {

/// The portfolio rule evaluated from scratch at every decision: for each
/// member spec, a fresh ComposedPolicy runs on a fresh EngineProjection of
/// the view for up to min(horizon, pending) commits, and the best outcome
/// (most commits, then a projected makespan lower by more than kTimeEps,
/// ties to the lowest index) supplies the decision. Member seeds follow
/// the production rule: fork(member index) off the member's spec seed,
/// then the decision ordinal.
///
/// It shares no code with PortfolioPolicy beyond the spec and the member
/// policies, so it is the oracle the delta-driven IncrementalProjection
/// path is pinned byte-identical to (test_meta_incremental and the
/// portfolio golden traces). It runs on any EngineView, the
/// ReferenceEngine included.
class RebuildPortfolio final : public core::OnlineScheduler {
 public:
  explicit RebuildPortfolio(MetaSpec spec);

  std::string name() const override { return name_; }
  core::Decision decide(const core::EngineView& engine) override;
  void reset() override { decisions_ = 0; }

 private:
  MetaSpec spec_;
  std::string name_;
  long long decisions_ = 0;
};

}  // namespace msol::algorithms::meta
