#include "oracles/rebuild_portfolio.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "algorithms/policy.hpp"
#include "oracles/engine_projection.hpp"
#include "util/rng.hpp"

namespace msol::algorithms::meta {

RebuildPortfolio::RebuildPortfolio(MetaSpec spec)
    : spec_(std::move(spec)), name_(to_string(spec_)) {
  if (spec_.kind != MetaKind::kPortfolio) {
    throw std::invalid_argument("RebuildPortfolio: spec is not portfolio:");
  }
}

core::Decision RebuildPortfolio::decide(const core::EngineView& engine) {
  const int horizon = std::min(spec_.horizon, engine.pending_count());
  ProjectionOutcome best_out;
  for (int i = 0; i < static_cast<int>(spec_.members.size()); ++i) {
    PolicySpec member = spec_.members[static_cast<std::size_t>(i)];
    member.seed = util::Rng(util::Rng(member.seed).child_seed(
                                static_cast<std::uint64_t>(i)))
                      .child_seed(static_cast<std::uint64_t>(decisions_));
    ComposedPolicy policy(member);
    EngineProjection projection(engine);
    const ProjectionOutcome out = projection.run(policy, horizon);
    if (i == 0 || out.commits > best_out.commits ||
        (out.commits == best_out.commits &&
         out.makespan < best_out.makespan - core::kTimeEps)) {
      best_out = out;
    }
  }
  ++decisions_;
  return best_out.first;
}

}  // namespace msol::algorithms::meta
