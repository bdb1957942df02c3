#pragma once

#include <cstdint>
#include <string>

#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "core/workload.hpp"
#include "platform/platform.hpp"

namespace msol::mpisim {

/// Knobs of the threaded emulation.
struct RuntimeConfig {
  int matrix_size = 48;  ///< payload/work unit (paper: "a matrix")
  /// Wall-clock seconds per virtual second. The paper's platforms have
  /// c in [0.01, 1] s and p in [0.1, 8] s; 0.002 keeps a 30-task run under
  /// a second of real time while staying far above scheduler jitter.
  double real_seconds_per_virtual = 0.002;
  std::uint64_t seed = 7;  ///< matrix contents
};

/// Host calibration, mirroring the paper's Sec 4.2 procedure: measure how
/// long one matrix copy ("send") and one determinant ("task") take here,
/// then replicate them nc_j / np_j times per slave so the *effective*
/// platform matches the requested (c_j, p_j). Each unit cost is the median
/// of 9 samples of >= 2 ms each (~40 ms in all), so a loaded host
/// calibrates at its loaded speed.
struct Calibration {
  double copy_seconds = 0.0;  ///< one matrix memcpy through a channel buffer
  double det_seconds = 0.0;   ///< one LU determinant
};

Calibration calibrate(int matrix_size, std::uint64_t seed);

/// Outcome of one threaded run.
struct RunResult {
  core::Schedule predicted;  ///< the master's model (exact one-port engine)
  core::Schedule measured;   ///< wall-clock trajectory, in virtual seconds
  Calibration calibration;
  std::vector<int> send_reps;     ///< nc_j per slave
  std::vector<int> compute_reps;  ///< np_j per slave
  double checksum = 0.0;  ///< sum of computed determinants (anti-DCE + QA)
};

/// Threaded master-slave emulation of the paper's MPI platform.
///
/// One master thread owns the single network port and ships each task's
/// matrix nc_j times through the slave's channel; one thread per slave
/// receives and computes the determinant np_j times. Decisions come from
/// the given on-line policy evaluated on the master's *model* of the
/// platform (an exact one-port engine over the estimated (c_j, p_j)),
/// which is precisely the information a real master has after the paper's
/// calibration step; the measured schedule then reflects genuine thread
/// timing, including noise.
class ThreadedRuntime {
 public:
  ThreadedRuntime(platform::Platform platform, RuntimeConfig config = {});

  /// Runs `workload` under `policy`. Blocking; wall-clock duration is about
  /// makespan * real_seconds_per_virtual. The predicted schedule passes
  /// core::validate_or_throw before any thread starts.
  RunResult run(const core::Workload& workload, core::OnlineScheduler& policy);

  const platform::Platform& platform() const { return platform_; }

 private:
  platform::Platform platform_;
  RuntimeConfig config_;
};

}  // namespace msol::mpisim
