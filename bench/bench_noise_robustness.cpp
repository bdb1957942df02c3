// Figure 2 decomposed. The paper jitters the matrix size (coupled comm and
// comp variation) by up to 10%; a real testbed adds *independent* noise on
// links and CPUs on top. This bench sweeps lognormal noise sigmas and shows
// which metric degradations come from size variation versus decoupled
// machine noise — explaining why the paper's Figure 2 bars are taller than
// a pure size-jitter replay produces.

#include <exception>
#include <iostream>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "platform/generator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace msol;

void run(const util::Cli& cli) {
  const int platforms = cli.get_int("platforms", 5, 1);
  const int tasks = cli.get_int("tasks", 400, 1);
  util::Rng rng(cli.get_uint64("seed", 2006));

  std::cout << "=== Noise decomposition: coupled size jitter (Fig 2) vs "
               "independent comm/comp lognormal noise ===\n"
            << platforms
            << " fully heterogeneous platforms; values are metric(noisy) / "
               "metric(clean), averaged\n\n";

  struct Mode {
    const char* label;
    double jitter;      // coupled, uniform +/- delta
    double comm_sigma;  // independent lognormal
    double comp_sigma;
  };
  const Mode modes[] = {
      {"size +/-10% (Fig 2)", 0.10, 0.0, 0.0},
      {"comm noise s=0.2", 0.0, 0.2, 0.0},
      {"comp noise s=0.2", 0.0, 0.0, 0.2},
      {"both noise s=0.2", 0.0, 0.2, 0.2},
      {"both noise s=0.5", 0.0, 0.5, 0.5},
  };
  const std::vector<std::string> algorithms = {"SRPT", "LS", "SLJFWC"};

  util::Table table({"perturbation", "algorithm", "makespan-ratio",
                     "sum-flow-ratio", "max-flow-ratio"});
  for (const Mode& mode : modes) {
    std::map<std::string, std::vector<double>> mk, sf, mf;
    util::Rng mode_rng = rng;  // same platforms/workloads per mode
    for (int rep = 0; rep < platforms; ++rep) {
      util::Rng rep_rng = mode_rng.fork();
      const platform::Platform plat = platform::PlatformGenerator().generate(
          platform::PlatformClass::kFullyHeterogeneous, 5, rep_rng);
      const core::Workload clean = core::Workload::poisson(
          tasks, 0.9 * experiments::max_throughput(plat), rep_rng);
      const core::Workload noisy =
          mode.jitter > 0.0
              ? clean.with_size_jitter(mode.jitter, rep_rng)
              : clean.with_lognormal_noise(mode.comm_sigma, mode.comp_sigma,
                                           rep_rng);
      for (const std::string& name : algorithms) {
        const auto a = algorithms::make_scheduler(name, tasks);
        const auto b = algorithms::make_scheduler(name, tasks);
        const core::Schedule base = core::simulate(plat, clean, *a);
        const core::Schedule pert = core::simulate(plat, noisy, *b);
        core::validate_or_throw(plat, clean, base);
        core::validate_or_throw(plat, noisy, pert);
        mk[name].push_back(pert.makespan() / base.makespan());
        sf[name].push_back(pert.sum_flow() / base.sum_flow());
        mf[name].push_back(pert.max_flow() / base.max_flow());
      }
    }
    for (const std::string& name : algorithms) {
      table.add_row({mode.label, name, util::fmt(util::mean(mk[name])),
                     util::fmt(util::mean(sf[name])),
                     util::fmt(util::mean(mf[name]))});
    }
  }
  std::cout << (cli.has("csv") ? table.to_csv() : table.to_string());
  std::cout << "\n(lognormal sigma in log-space: s=0.2 ~ +/-20% typical, "
               "s=0.5 ~ +/-65% typical)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    run(msol::util::Cli(argc, argv));
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "bench_noise_robustness: " << error.what() << "\n";
    return 1;
  }
}
