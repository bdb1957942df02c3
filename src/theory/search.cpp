#include "theory/search.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/validator.hpp"
#include "offline/exhaustive.hpp"
#include "util/rng.hpp"

namespace msol::theory {

namespace {

struct State {
  std::vector<platform::SlaveSpec> slaves;
  std::vector<core::Time> releases;  ///< kept sorted, min == 0
};

void normalize_releases(State& state) {
  std::sort(state.releases.begin(), state.releases.end());
  const core::Time base = state.releases.front();
  for (core::Time& r : state.releases) r -= base;
}

State random_state(const SearchConfig& config, util::Rng& rng) {
  State state;
  platform::PlatformGenerator generator(config.ranges);
  const platform::Platform plat =
      generator.generate(config.platform_class, config.num_slaves, rng);
  state.slaves = plat.slaves();

  const core::Time horizon =
      0.5 * static_cast<core::Time>(config.num_tasks) *
      (config.ranges.comm_hi + config.ranges.comp_hi);
  state.releases.push_back(0.0);
  for (int i = 1; i < config.num_tasks; ++i) {
    state.releases.push_back(rng.uniform(0.0, horizon));
  }
  normalize_releases(state);
  return state;
}

double clamp(double v, double lo, double hi) {
  return std::min(hi, std::max(lo, v));
}

void mutate(State& state, const SearchConfig& config, util::Rng& rng) {
  const bool comm_homog =
      config.platform_class == platform::PlatformClass::kFullyHomogeneous ||
      config.platform_class == platform::PlatformClass::kCommHomogeneous;
  const bool comp_homog =
      config.platform_class == platform::PlatformClass::kFullyHomogeneous ||
      config.platform_class == platform::PlatformClass::kCompHomogeneous;

  const auto scale = [&rng] { return std::exp(rng.uniform(-0.6, 0.6)); };
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // scale a comm value (all of them when homogeneous)
      const double f = scale();
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, config.num_slaves - 1));
      for (std::size_t j = 0; j < state.slaves.size(); ++j) {
        if (comm_homog || j == pick) {
          state.slaves[j].comm = clamp(state.slaves[j].comm * f,
                                       config.ranges.comm_lo,
                                       config.ranges.comm_hi);
        }
      }
      if (comm_homog) {  // keep exactly equal despite clamping
        for (auto& s : state.slaves) s.comm = state.slaves[0].comm;
      }
      break;
    }
    case 1: {  // scale a comp value (all of them when homogeneous)
      const double f = scale();
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(0, config.num_slaves - 1));
      for (std::size_t j = 0; j < state.slaves.size(); ++j) {
        if (comp_homog || j == pick) {
          state.slaves[j].comp = clamp(state.slaves[j].comp * f,
                                       config.ranges.comp_lo,
                                       config.ranges.comp_hi);
        }
      }
      if (comp_homog) {
        for (auto& s : state.slaves) s.comp = state.slaves[0].comp;
      }
      break;
    }
    case 2: {  // jitter one release
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, config.num_tasks - 1));
      const core::Time horizon =
          std::max(1.0, state.releases.back() * 1.5);
      state.releases[i] = rng.uniform(0.0, horizon);
      break;
    }
    default: {  // collapse one release onto another (create a burst)
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, config.num_tasks - 1));
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, config.num_tasks - 1));
      state.releases[i] = state.releases[k];
      break;
    }
  }
  normalize_releases(state);
}

double evaluate(core::OnlineScheduler& scheduler, const SearchConfig& config,
                const State& state, double& alg, double& opt) {
  const platform::Platform plat{std::vector<platform::SlaveSpec>(
      state.slaves.begin(), state.slaves.end())};
  const core::Workload work = core::Workload::from_releases(state.releases);
  const core::Schedule schedule = core::simulate(plat, work, scheduler);
  core::validate_or_throw(plat, work, schedule);
  alg = schedule.objective(config.objective);
  opt = offline::solve_optimal(plat, work, config.objective).objective;
  return opt > 0.0 ? alg / opt : 1.0;
}

}  // namespace

void check_search_config(const SearchConfig& config) {
  if (config.num_slaves < 1 || config.num_tasks < 1 || config.iterations < 0 ||
      config.restarts < 1) {
    throw std::invalid_argument(
        "adversarial search needs slaves >= 1, tasks >= 1, iterations >= 0 "
        "and restarts >= 1");
  }
}

SearchResult adversarial_search(core::OnlineScheduler& scheduler,
                                const SearchConfig& config) {
  check_search_config(config);
  util::Rng rng(config.seed);
  SearchResult best;
  const auto record = [&best](const State& state, double ratio, double alg,
                              double opt) {
    if (!best.platform.empty() && ratio <= best.ratio) return;
    best.ratio = ratio;
    best.platform = state.slaves;
    best.releases = state.releases;
    best.alg_value = alg;
    best.opt_value = opt;
  };
  for (int restart = 0; restart < config.restarts; ++restart) {
    State current = random_state(config, rng);
    double alg = 0.0, opt = 0.0;
    double current_ratio = evaluate(scheduler, config, current, alg, opt);
    record(current, current_ratio, alg, opt);
    for (int iter = 0; iter < config.iterations; ++iter) {
      State candidate = current;
      mutate(candidate, config, rng);
      const double ratio = evaluate(scheduler, config, candidate, alg, opt);
      if (ratio >= current_ratio) {  // plateau moves allowed
        current = std::move(candidate);
        current_ratio = ratio;
        record(current, ratio, alg, opt);
      }
    }
  }
  return best;
}

}  // namespace msol::theory
