// Beyond the paper's max/sum flow: the *distribution* of response times.
// For an interactive bag-of-tasks service the p99 flow and Jain's fairness
// index decide user experience; this bench profiles every scheduler on the
// Figure-1(d) setting and shows that sum-flow winners are not automatically
// tail winners.

#include <exception>
#include <iostream>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
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
  const int tasks = cli.get_int("tasks", 600, 1);
  util::Rng rng(cli.get_uint64("seed", 2006));

  std::cout << "=== Flow-time distribution: mean / p50 / p90 / p99 / max "
               "flow and Jain fairness ===\n"
            << platforms << " fully heterogeneous platforms, " << tasks
            << " tasks, Poisson load 0.9\n\n";

  std::map<std::string, std::vector<double>> mean_v, p50_v, p90_v, p99_v,
      max_v, jain_v, port_v;
  platform::PlatformGenerator gen;
  for (int rep = 0; rep < platforms; ++rep) {
    util::Rng rep_rng = rng.fork();
    const platform::Platform plat = gen.generate(
        platform::PlatformClass::kFullyHeterogeneous, 5, rep_rng);
    const core::Workload work = core::Workload::poisson(
        tasks, 0.9 * experiments::max_throughput(plat), rep_rng);
    for (const std::string& name : algorithms::extended_algorithm_names()) {
      const auto scheduler = algorithms::make_scheduler(name, tasks);
      const core::Schedule s = core::simulate(plat, work, *scheduler);
      core::validate_or_throw(plat, work, s);
      const core::FlowStats f = core::flow_stats(s);
      const core::Utilization u = core::utilization(plat, s);
      mean_v[name].push_back(f.mean);
      p50_v[name].push_back(f.p50);
      p90_v[name].push_back(f.p90);
      p99_v[name].push_back(f.p99);
      max_v[name].push_back(f.max);
      jain_v[name].push_back(f.jain_fairness);
      port_v[name].push_back(u.port);
    }
  }

  util::Table table({"algorithm", "mean", "p50", "p90", "p99", "max",
                     "jain", "port-util"});
  for (const std::string& name : algorithms::extended_algorithm_names()) {
    table.add_row({name, util::fmt(util::mean(mean_v[name]), 2),
                   util::fmt(util::mean(p50_v[name]), 2),
                   util::fmt(util::mean(p90_v[name]), 2),
                   util::fmt(util::mean(p99_v[name]), 2),
                   util::fmt(util::mean(max_v[name]), 2),
                   util::fmt(util::mean(jain_v[name])),
                   util::fmt(util::mean(port_v[name]))});
  }
  std::cout << (cli.has("csv") ? table.to_csv() : table.to_string());
  std::cout << "\n(flows in virtual seconds; jain = 1 means perfectly equal "
               "response times)\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    run(msol::util::Cli(argc, argv));
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "bench_flow_tails: " << error.what() << "\n";
    return 1;
  }
}
