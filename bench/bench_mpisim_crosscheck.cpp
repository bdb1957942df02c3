// Cross-checks the threaded MPI-emulation substrate (Sec 4.2's experimental
// method) against the exact one-port engine: for a small campaign on a
// fully heterogeneous 5-slave platform, how far do real-thread timings
// drift from the model's prediction?

#include <algorithm>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <thread>

#include "algorithms/registry.hpp"
#include "mpisim/runtime.hpp"
#include "platform/generator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace msol;

void run(const util::Cli& cli) {
  const int tasks = cli.get_int("tasks", 20, 1);
  const int reps = cli.get_int("reps", 3, 1);
  util::Rng rng(cli.get_uint64("seed", 2006));

  // The paper ran on five dedicated machines; here slave threads share this
  // host's cores. Faithful timing needs one core per slave plus one for the
  // master, so default the emulated platform to what the host can actually
  // run in parallel.
  const int cores = std::max(1u, std::thread::hardware_concurrency());
  const int default_slaves = std::clamp(cores - 1, 1, 5);
  const int slaves = cli.get_int("slaves", default_slaves, 1);
  mpisim::RuntimeConfig rc;
  rc.matrix_size = cli.get_int("matrix", 32, 1);
  rc.real_seconds_per_virtual = cli.get_double("scale", 0.005);
  if (rc.real_seconds_per_virtual <= 0.0) {
    throw std::invalid_argument("--scale must be > 0, got " +
                                cli.get("scale", ""));
  }

  std::cout << "=== MPI-emulation cross-check: threaded runtime vs exact "
               "engine ===\n"
            << "tasks per run: " << tasks << ", runs: " << reps
            << ", emulated slaves: " << slaves << " (host cores: " << cores
            << ")\n";
  if (slaves + 1 > cores) {
    std::cout << "NOTE: fewer cores than threads -> compute threads "
                 "timeshare; expect inflated drift.\n";
  }
  std::cout << "\n";

  const mpisim::Calibration cal = mpisim::calibrate(rc.matrix_size, 7);
  std::cout << "host calibration: one " << rc.matrix_size << "x"
            << rc.matrix_size << " copy = " << cal.copy_seconds * 1e6
            << " us, one determinant = " << cal.det_seconds * 1e6 << " us\n\n";

  util::Table table({"run", "algorithm", "predicted-makespan",
                     "measured-makespan", "drift[%]", "sum-flow-drift[%]"});
  platform::PlatformGenerator gen;
  for (int rep = 0; rep < reps; ++rep) {
    util::Rng rep_rng = rng.fork();
    const platform::Platform plat = gen.generate(
        platform::PlatformClass::kFullyHeterogeneous, slaves, rep_rng);
    const core::Workload work = core::Workload::all_at_zero(tasks);
    for (const std::string& name : {std::string("LS"), std::string("SRPT")}) {
      const auto policy = algorithms::make_scheduler(name, tasks);
      mpisim::ThreadedRuntime runtime(plat, rc);
      const mpisim::RunResult result = runtime.run(work, *policy);
      const double mk_p = result.predicted.makespan();
      const double mk_m = result.measured.makespan();
      const double sf_p = result.predicted.sum_flow();
      const double sf_m = result.measured.sum_flow();
      table.add_row({std::to_string(rep), name, util::fmt(mk_p, 2),
                     util::fmt(mk_m, 2),
                     util::fmt(100.0 * (mk_m - mk_p) / mk_p, 1),
                     util::fmt(100.0 * (sf_m - sf_p) / sf_p, 1)});
    }
  }
  std::cout << (cli.has("csv") ? table.to_csv() : table.to_string());
  std::cout << "\n(drift = wall-clock threads vs deterministic engine; "
               "small positive drift is expected\n from scheduler jitter and "
               "calibration rounding)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    run(msol::util::Cli(argc, argv));
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "bench_mpisim_crosscheck: " << error.what() << "\n";
    return 1;
  }
}
