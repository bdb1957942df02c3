// Robustness beyond Figure 2: instead of perturbing task sizes, degrade the
// *platform* — a burst of background load slows one slave while the
// schedulers keep planning with the calibrated speeds. Static policies
// committed to the degraded slave pay; SRPT's refusal to queue suddenly
// becomes a defence. Reported: metric under load / metric on the pristine
// platform, per algorithm.

#include <exception>
#include <iostream>
#include <stdexcept>

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
  const double factor = cli.get_double("factor", 3.0);
  if (factor <= 0.0) {
    throw std::invalid_argument("--factor must be > 0, got " +
                                cli.get("factor", ""));
  }
  util::Rng rng(cli.get_uint64("seed", 2006));

  std::cout << "=== Background-load robustness: the fastest slave runs " << factor
            << "x slower during the middle half of the nominal horizon ===\n"
            << platforms << " fully heterogeneous platforms, " << tasks
            << " tasks each; schedulers are NOT told about the load.\n\n";

  std::map<std::string, std::vector<double>> mk_ratio, sf_ratio;
  platform::PlatformGenerator gen;
  for (int rep = 0; rep < platforms; ++rep) {
    util::Rng rep_rng = rng.fork();
    const platform::Platform plat = gen.generate(
        platform::PlatformClass::kFullyHeterogeneous, 5, rep_rng);
    const core::Workload work = core::Workload::poisson(
        tasks, 0.9 * experiments::max_throughput(plat), rep_rng);

    // Nominal horizon from LS, used to place the load window fairly.
    const auto probe = algorithms::make_scheduler("LS");
    const core::Schedule probed = core::simulate(plat, work, *probe);
    core::validate_or_throw(plat, work, probed);
    const double horizon = probed.makespan();

    core::EngineOptions degraded;
    // Hit the most attractive slave: the one with the fastest CPU.
    const core::SlaveId victim = plat.order_by_comp().front();
    degraded.slowdowns.push_back(
        core::SlowdownWindow{victim, 0.25 * horizon, 0.75 * horizon, factor});

    for (const std::string& name : algorithms::extended_algorithm_names()) {
      if (name == "RANDOM") continue;
      const auto base_sched = algorithms::make_scheduler(name, tasks);
      const core::Schedule base = core::simulate(plat, work, *base_sched);
      core::validate_or_throw(plat, work, base);
      const auto load_sched = algorithms::make_scheduler(name, tasks);
      const core::Schedule loaded =
          core::simulate(plat, work, *load_sched, degraded);
      core::validate_or_throw(plat, work, loaded, degraded);
      mk_ratio[name].push_back(loaded.makespan() / base.makespan());
      sf_ratio[name].push_back(loaded.sum_flow() / base.sum_flow());
    }
  }

  util::Table table({"algorithm", "makespan-degradation", "sum-flow-degradation"});
  for (const std::string& name : algorithms::extended_algorithm_names()) {
    if (name == "RANDOM") continue;
    table.add_row({name, util::fmt(util::mean(mk_ratio[name])),
                   util::fmt(util::mean(sf_ratio[name]))});
  }
  std::cout << (cli.has("csv") ? table.to_csv() : table.to_string());
  std::cout << "\n(1.0 = unaffected; higher = more damage from the same "
               "background load)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    run(msol::util::Cli(argc, argv));
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "bench_background_load: " << error.what() << "\n";
    return 1;
  }
}
