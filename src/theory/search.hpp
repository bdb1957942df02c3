#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "core/workload.hpp"
#include "platform/generator.hpp"
#include "platform/platform.hpp"

namespace msol::theory {

/// Automated adversary: a randomized hill-climbing search for high-ratio
/// instances against a *specific* deterministic scheduler.
///
/// The paper's Table 1 bounds hold against all algorithms via hand-crafted
/// decision trees; this search attacks one algorithm at a time by mutating
/// small instances (platform values and release times) and keeping whatever
/// maximizes (algorithm objective) / (exhaustive optimum). It routinely
/// rediscovers ratios at or above the hand-proved bounds for the weaker
/// heuristics, and gives an empirical competitiveness profile for the
/// stronger ones — a step toward the paper's open question of which bounds
/// are tight.
struct SearchConfig {
  core::Objective objective = core::Objective::kMakespan;
  platform::PlatformClass platform_class =
      platform::PlatformClass::kCommHomogeneous;
  int num_slaves = 2;
  int num_tasks = 4;       ///< instance size (exhaustive optimum must stay cheap)
  int iterations = 2000;   ///< mutation steps
  int restarts = 5;        ///< independent random starts
  std::uint64_t seed = 2006;
  platform::GeneratorRanges ranges;  ///< value ranges for platform mutation
};

struct SearchResult {
  double ratio = 1.0;
  std::vector<platform::SlaveSpec> platform;  ///< the adversarial platform
  std::vector<core::Time> releases;           ///< the adversarial releases
  double alg_value = 0.0;
  double opt_value = 0.0;
};

/// Throws std::invalid_argument unless num_slaves >= 1, num_tasks >= 1,
/// iterations >= 0 and restarts >= 1: the instances a search can run.
void check_search_config(const SearchConfig& config);

/// Runs the search; the scheduler is reset before every candidate
/// evaluation, and every candidate's schedule is validated. Each restart's
/// random start counts as a candidate, so the result always carries an
/// instance. Deterministic in config.seed. Calls check_search_config first.
SearchResult adversarial_search(core::OnlineScheduler& scheduler,
                                const SearchConfig& config);

}  // namespace msol::theory
