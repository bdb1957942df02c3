#include "core/workload.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msol::core {

Workload::Workload(std::vector<TaskSpec> tasks) : tasks_(std::move(tasks)) {
  for (const TaskSpec& t : tasks_) {
    if (t.release < 0.0) {
      throw std::invalid_argument("Workload: negative release time");
    }
    if (!(t.comm_factor > 0.0) || !(t.comp_factor > 0.0)) {
      throw std::invalid_argument("Workload: size factors must be positive");
    }
  }
  std::stable_sort(tasks_.begin(), tasks_.end(),
                   [](const TaskSpec& a, const TaskSpec& b) {
                     return a.release < b.release;
                   });
}

const TaskSpec& Workload::at(TaskId i) const {
  if (i < 0 || i >= size()) {
    throw std::out_of_range("Workload: task id out of range");
  }
  return tasks_[static_cast<std::size_t>(i)];
}

Time Workload::last_release() const {
  return tasks_.empty() ? 0.0 : tasks_.back().release;
}

Workload Workload::all_at_zero(int n) {
  return Workload(std::vector<TaskSpec>(static_cast<std::size_t>(n)));
}

Workload Workload::poisson(int n, double rate, util::Rng& rng) {
  if (rate <= 0.0) throw std::invalid_argument("Workload: rate must be > 0");
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  Time t = 0.0;
  for (int i = 0; i < n; ++i) {
    tasks.push_back(TaskSpec{t, 1.0, 1.0});
    t += rng.exponential(rate);
  }
  return Workload(std::move(tasks));
}

Workload Workload::uniform(int n, Time horizon, util::Rng& rng) {
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    tasks.push_back(TaskSpec{rng.uniform(0.0, horizon), 1.0, 1.0});
  }
  return Workload(std::move(tasks));
}

Workload Workload::bursty(int n, int burst, Time mean_gap, util::Rng& rng) {
  if (burst <= 0) throw std::invalid_argument("Workload: burst must be > 0");
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  Time t = 0.0;
  int emitted = 0;
  while (emitted < n) {
    const int in_burst = std::min(burst, n - emitted);
    for (int i = 0; i < in_burst; ++i) tasks.push_back(TaskSpec{t, 1.0, 1.0});
    emitted += in_burst;
    t += rng.exponential(1.0 / mean_gap);
  }
  return Workload(std::move(tasks));
}

Workload Workload::inhomogeneous_poisson(int n, double base_rate,
                                         double amplitude, Time period,
                                         util::Rng& rng) {
  if (base_rate <= 0.0) {
    throw std::invalid_argument("Workload: base_rate must be > 0");
  }
  if (amplitude < 0.0 || amplitude > 1.0) {
    throw std::invalid_argument("Workload: amplitude must be in [0, 1]");
  }
  if (period <= 0.0) {
    throw std::invalid_argument("Workload: period must be > 0");
  }
  const double peak = base_rate * (1.0 + amplitude);
  const double two_pi = 2.0 * 3.14159265358979323846;
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<std::size_t>(n));
  Time t = 0.0;
  while (static_cast<int>(tasks.size()) < n) {
    t += rng.exponential(peak);
    const double rate =
        base_rate * (1.0 + amplitude * std::sin(two_pi * t / period));
    // Strict comparison: at full modulation the trough rate is exactly 0,
    // and thinning must then reject every candidate — `<=` let a drawn 0.0
    // emit a task at an instant of provably zero intensity.
    if (rng.uniform(0.0, 1.0) * peak < rate) {
      tasks.push_back(TaskSpec{t, 1.0, 1.0});
    }
  }
  return Workload(std::move(tasks));
}

Workload Workload::from_releases(std::vector<Time> releases) {
  std::vector<TaskSpec> tasks;
  tasks.reserve(releases.size());
  for (Time r : releases) tasks.push_back(TaskSpec{r, 1.0, 1.0});
  return Workload(std::move(tasks));
}

Workload Workload::with_lognormal_noise(double comm_sigma, double comp_sigma,
                                        util::Rng& rng) const {
  if (comm_sigma < 0.0 || comp_sigma < 0.0) {
    throw std::invalid_argument("Workload: noise sigma must be >= 0");
  }
  // std::normal_distribution requires a positive stddev; a zero sigma's
  // distribution is never drawn from, so any positive stand-in will do.
  std::normal_distribution<double> comm_noise(
      0.0, comm_sigma > 0.0 ? comm_sigma : 1.0);
  std::normal_distribution<double> comp_noise(
      0.0, comp_sigma > 0.0 ? comp_sigma : 1.0);
  std::vector<TaskSpec> tasks = tasks_;
  for (TaskSpec& t : tasks) {
    if (comm_sigma > 0.0) t.comm_factor *= std::exp(comm_noise(rng.engine()));
    if (comp_sigma > 0.0) t.comp_factor *= std::exp(comp_noise(rng.engine()));
  }
  return Workload(std::move(tasks));
}

Workload Workload::with_pareto_sizes(double alpha, double cap,
                                     util::Rng& rng) const {
  if (alpha <= 1.0) {
    throw std::invalid_argument(
        "Workload: pareto alpha must be > 1 (finite mean)");
  }
  if (cap < 1.0) {
    throw std::invalid_argument("Workload: pareto cap must be >= 1");
  }
  const double x_m = (alpha - 1.0) / alpha;  // unit mean before truncation
  // Truncation at cap pulls the mean below 1 (for alpha = 1.5, cap = 20 it
  // lands near 0.914), which would silently run every heavy-tail cell at a
  // lower effective load than the campaign's `load` knob states. Divide by
  // the analytic truncated mean E[min(X, cap)] so the delivered mix is
  // exactly unit-mean and the arrival-rate calibration stays honest.
  const double truncated_mean =
      x_m / (alpha - 1.0) * (alpha - std::pow(x_m / cap, alpha - 1.0));
  std::vector<TaskSpec> tasks = tasks_;
  for (TaskSpec& t : tasks) {
    // Inverse-CDF sampling; the draw is clamped away from 0 so the
    // power-law transform stays finite, then truncated at cap.
    const double u = std::max(rng.uniform(0.0, 1.0), 1e-12);
    const double size =
        std::min(x_m / std::pow(u, 1.0 / alpha), cap) / truncated_mean;
    t.comm_factor *= size;
    t.comp_factor *= size;
  }
  return Workload(std::move(tasks));
}

Workload Workload::with_size_jitter(double delta, util::Rng& rng) const {
  if (delta < 0.0 || delta >= 1.0) {
    throw std::invalid_argument("Workload: jitter delta must be in [0,1)");
  }
  std::vector<TaskSpec> tasks = tasks_;
  for (TaskSpec& t : tasks) {
    const double f = rng.uniform(1.0 - delta, 1.0 + delta);
    t.comm_factor *= f;
    t.comp_factor *= f;
  }
  return Workload(std::move(tasks));
}

}  // namespace msol::core
