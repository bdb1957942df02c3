#include "algorithms/meta/meta_policy.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <variant>

#include "algorithms/meta/projection.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace msol::algorithms::meta {

// ---------------------------------------------------------------------------
// PortfolioPolicy
// ---------------------------------------------------------------------------

PortfolioPolicy::PortfolioPolicy(MetaSpec spec) : MetaPolicy(std::move(spec)) {
  if (spec_.kind != MetaKind::kPortfolio) {
    throw std::invalid_argument("PortfolioPolicy: spec is not portfolio:");
  }
}

/// The per-evaluation member seed: fork(member index) off the member's spec
/// seed, then the decision ordinal — counter-style, so evaluations are pure
/// and thread-count independent.
static std::uint64_t member_eval_seed(const PolicySpec& member, int index,
                                      long long decisions) {
  return util::Rng(util::Rng(member.seed).child_seed(
                       static_cast<std::uint64_t>(index)))
      .child_seed(static_cast<std::uint64_t>(decisions));
}

core::Decision PortfolioPolicy::decide(const core::EngineView& engine) {
  const auto* live = dynamic_cast<const core::OnePortEngine*>(&engine);
  if (live == nullptr) {
    throw std::logic_error(
        "PortfolioPolicy: decide() needs a OnePortEngine view (its projection "
        "follows the engine's delta feed)");
  }
  const int horizon = std::min(spec_.horizon, engine.pending_count());

  // One persistent delta-synced projection shared by all members, and
  // cached member policies reseeded per evaluation (reseed == fresh
  // construction for decide(), see ComposedPolicy::reseed).
  if (!incremental_ || incremental_->engine() != live) {
    incremental_ = std::make_unique<IncrementalProjection>(*live);
  }
  incremental_->sync();
  if (members_.empty()) {
    members_.reserve(spec_.members.size());
    for (const PolicySpec& member : spec_.members) {
      members_.push_back(std::make_unique<ComposedPolicy>(member));
    }
  }
  int best = 0;
  ProjectionOutcome best_out;
  for (int i = 0; i < static_cast<int>(members_.size()); ++i) {
    const auto is = static_cast<std::size_t>(i);
    ComposedPolicy& member = *members_[is];
    member.reseed(member_eval_seed(spec_.members[is], i, decisions_));
    const ProjectionOutcome out = incremental_->run(member, horizon);
    if (i == 0 || out.commits > best_out.commits ||
        (out.commits == best_out.commits &&
         out.makespan < best_out.makespan - core::kTimeEps)) {
      best = i;
      best_out = out;
    }
  }
  if (last_choice_ >= 0 && best != last_choice_) ++switches_;
  last_choice_ = best;
  ++decisions_;
  return best_out.first;
}

void PortfolioPolicy::reset() {
  decisions_ = 0;
  last_choice_ = -1;
  switches_ = 0;
  // Dropped, not kept: a reset policy may next run against a different
  // engine object (simulate()'s thread-local engines are per-thread, but
  // harness code constructs engines on the stack), and a dangling live
  // pointer must not survive into that run.
  incremental_.reset();
}

// ---------------------------------------------------------------------------
// HedgePolicy
// ---------------------------------------------------------------------------

HedgePolicy::HedgePolicy(MetaSpec spec)
    : MetaPolicy(std::move(spec)),
      // spec_ lives in the base subobject, so it is initialized by the time
      // the detector member is constructed.
      detector_(RegimeConfig{spec_.window, spec_.hysteresis}) {
  if (spec_.kind != MetaKind::kHedge) {
    throw std::invalid_argument("HedgePolicy: spec is not hedge:");
  }
  for (const PolicySpec& member : spec_.members) {
    members_.push_back(std::make_unique<ComposedPolicy>(member));
  }
}

core::Decision HedgePolicy::decide(const core::EngineView& engine) {
  detector_.observe(engine);
  const int want = detector_.stressed() ? 1 : 0;
  if (want != active_) {
    ++switches_;
    active_ = want;
  }
  return members_[static_cast<std::size_t>(active_)]->decide(engine);
}

void HedgePolicy::on_task_released(const core::EngineView& engine,
                                   core::TaskId task) {
  detector_.observe_release(engine.task_spec(task).release);
  for (auto& member : members_) member->on_task_released(engine, task);
}

void HedgePolicy::reset() {
  detector_.reset();
  for (auto& member : members_) member->reset();
  active_ = 0;
  switches_ = 0;
}

// ---------------------------------------------------------------------------

std::unique_ptr<core::OnlineScheduler> make_meta_policy(const MetaSpec& spec) {
  switch (spec.kind) {
    case MetaKind::kPortfolio:
      return std::make_unique<PortfolioPolicy>(spec);
    case MetaKind::kHedge:
      return std::make_unique<HedgePolicy>(spec);
  }
  throw std::invalid_argument("make_meta_policy: unknown meta kind");
}

}  // namespace msol::algorithms::meta
