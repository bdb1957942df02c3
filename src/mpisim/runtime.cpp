#include "mpisim/runtime.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/validator.hpp"
#include "mpisim/channel.hpp"
#include "mpisim/matrix.hpp"
#include "util/rng.hpp"

namespace msol::mpisim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// One message on a master->slave link.
struct TaskMsg {
  core::TaskId task = -1;
  int det_reps = 1;
  Matrix payload{1};
};

/// Copies `m` into `scratch` once — the unit "send" of the calibration.
/// Returns a value depending on the data so the copy cannot be elided.
double copy_once(const Matrix& m, std::vector<double>& scratch) {
  scratch.assign(m.data().begin(), m.data().end());
  return scratch.front() + scratch.back();
}

}  // namespace

Calibration calibrate(int matrix_size, std::uint64_t seed) {
  util::Rng rng(seed);
  const Matrix m = Matrix::random(matrix_size, rng);
  std::vector<double> scratch;
  volatile double sink = 0.0;

  // Every replication count scales with these unit costs, so they must be
  // the speed the run will get. A sub-millisecond timing sees an idle core
  // even on a busy host (runs on an oversubscribed 4-vCPU host then took up
  // to 5x their predicted makespan), so each sample spans >= 2 ms, which
  // averages in a sustained load, and the median of 9 interleaved samples
  // drops a single preemption or quiet moment.
  const auto per_rep = [](const auto& op) {
    const auto t0 = Clock::now();
    int reps = 0;
    for (; reps == 0 || seconds_since(t0) < 2e-3; reps += 16) {
      for (int i = 0; i < 16; ++i) op();
    }
    return seconds_since(t0) / reps;
  };
  std::array<double, 9> copy{}, det{};
  for (std::size_t s = 0; s < copy.size(); ++s) {
    copy[s] = per_rep([&] { sink = sink + copy_once(m, scratch); });
    det[s] = per_rep([&] { sink = sink + determinant(m); });
  }
  std::nth_element(copy.begin(), copy.begin() + 4, copy.end());
  std::nth_element(det.begin(), det.begin() + 4, det.end());

  Calibration cal;
  cal.copy_seconds = std::max(copy[4], 1e-9);
  cal.det_seconds = std::max(det[4], 1e-9);
  return cal;
}

ThreadedRuntime::ThreadedRuntime(platform::Platform platform,
                                 RuntimeConfig config)
    : platform_(std::move(platform)), config_(config) {
  if (config_.real_seconds_per_virtual <= 0.0) {
    throw std::invalid_argument("ThreadedRuntime: scale must be positive");
  }
}

RunResult ThreadedRuntime::run(const core::Workload& workload,
                               core::OnlineScheduler& policy) {
  RunResult result;
  result.calibration = calibrate(config_.matrix_size, config_.seed);

  // The master's model of the platform: the exact one-port engine over the
  // calibrated (c_j, p_j). Its decisions are what we execute for real.
  result.predicted = core::simulate(platform_, workload, policy);
  core::validate_or_throw(platform_, workload, result.predicted);

  const double scale = config_.real_seconds_per_virtual;
  const int m = platform_.size();
  result.send_reps.resize(static_cast<std::size_t>(m));
  result.compute_reps.resize(static_cast<std::size_t>(m));
  for (core::SlaveId j = 0; j < m; ++j) {
    result.send_reps[static_cast<std::size_t>(j)] = std::max<int>(
        1, static_cast<int>(std::llround(platform_.comm(j) * scale /
                                         result.calibration.copy_seconds)));
    result.compute_reps[static_cast<std::size_t>(j)] = std::max<int>(
        1, static_cast<int>(std::llround(platform_.comp(j) * scale /
                                         result.calibration.det_seconds)));
  }

  // Dispatch order = predicted send order.
  std::vector<core::TaskRecord> plan = result.predicted.records();
  std::sort(plan.begin(), plan.end(),
            [](const core::TaskRecord& a, const core::TaskRecord& b) {
              return a.send_start < b.send_start;
            });

  util::Rng rng(config_.seed);
  const Matrix payload = Matrix::random(config_.matrix_size, rng);

  // Measured trajectories: each field written by exactly one thread.
  std::vector<core::TaskRecord> measured(
      static_cast<std::size_t>(workload.size()));
  std::vector<Channel<TaskMsg>> channels(static_cast<std::size_t>(m));
  std::vector<double> slave_checksum(static_cast<std::size_t>(m), 0.0);

  const auto origin = Clock::now();
  std::vector<std::thread> slaves;
  slaves.reserve(static_cast<std::size_t>(m));
  for (core::SlaveId j = 0; j < m; ++j) {
    slaves.emplace_back([&, j] {
      Channel<TaskMsg>& channel = channels[static_cast<std::size_t>(j)];
      double checksum = 0.0;
      while (auto msg = channel.receive()) {
        core::TaskRecord& rec = measured[static_cast<std::size_t>(msg->task)];
        rec.comp_start = seconds_since(origin);
        for (int rep = 0; rep < msg->det_reps; ++rep) {
          checksum += determinant(msg->payload);
        }
        rec.comp_end = seconds_since(origin);
      }
      slave_checksum[static_cast<std::size_t>(j)] = checksum;
    });
  }

  // Master: single thread == the single network port.
  std::vector<double> scratch;
  volatile double sink = 0.0;
  for (const core::TaskRecord& step : plan) {
    const core::TaskSpec& spec = workload.at(step.task);
    const double earliest_real =
        std::max(spec.release, step.send_start) * scale;
    const auto wake = origin + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(earliest_real));
    std::this_thread::sleep_until(wake);

    core::TaskRecord& rec = measured[static_cast<std::size_t>(step.task)];
    rec.task = step.task;
    rec.slave = step.slave;
    rec.release = spec.release;
    rec.send_start = seconds_since(origin);
    const int reps = std::max<int>(
        1, static_cast<int>(std::llround(
               result.send_reps[static_cast<std::size_t>(step.slave)] *
               spec.comm_factor)));
    for (int rep = 0; rep < reps; ++rep) {
      sink = sink + copy_once(payload, scratch);
    }
    rec.send_end = seconds_since(origin);

    TaskMsg msg;
    msg.task = step.task;
    msg.det_reps = std::max<int>(
        1, static_cast<int>(std::llround(
               result.compute_reps[static_cast<std::size_t>(step.slave)] *
               spec.comp_factor)));
    msg.payload = payload;
    channels[static_cast<std::size_t>(step.slave)].send(std::move(msg));
  }
  for (auto& channel : channels) channel.close();
  for (std::thread& t : slaves) t.join();

  for (core::SlaveId j = 0; j < m; ++j) {
    result.checksum += slave_checksum[static_cast<std::size_t>(j)];
  }

  // Convert measured wall clock back to virtual seconds.
  for (core::TaskRecord& rec : measured) {
    rec.send_start /= scale;
    rec.send_end /= scale;
    rec.comp_start /= scale;
    rec.comp_end /= scale;
    result.measured.add(rec);
  }
  return result;
}

}  // namespace msol::mpisim
