// Bag-of-tasks campaign advisor — the application class that motivates the
// paper (parameter sweeps à la APST [10], identical independent tasks).
//
// Given a cluster description (a platform file, or a built-in example) and
// a campaign size, this tool simulates every scheduler in the library on
// the exact workload and reports which policy to deploy for each objective:
// finish-the-campaign-first (makespan), fairness to individual samples
// (max-flow), or average turnaround (sum-flow).
//
//   $ ./examples/bag_of_tasks --tasks=500 --platform=cluster.txt
//   $ ./examples/bag_of_tasks --arrival=zero
//   $ ./examples/bag_of_tasks --workload=trace.txt   # replay a task trace

#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "core/workload_io.hpp"
#include "experiments/campaign.hpp"
#include "offline/bounds.hpp"
#include "platform/io.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

msol::platform::Platform load_platform(const msol::util::Cli& cli) {
  const std::string path = cli.get("platform", "");
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open platform file " + path);
    return msol::platform::read(in);
  }
  // A plausible small lab: two fast workstations, two older boxes, a laptop
  // on wifi — mirroring the paper's "five different computers".
  return msol::platform::Platform({
      {0.05, 0.8},  // workstation, wired
      {0.05, 1.0},  // workstation, wired
      {0.20, 2.5},  // older box
      {0.30, 3.5},  // older box
      {0.80, 1.5},  // fast laptop, terrible wifi
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msol;
  try {
    const util::Cli cli(argc, argv);
    const int n = cli.get_int("tasks", 500, 1);
    const double load = cli.get_double("load", 0.9);
    util::Rng rng(cli.get_uint64("seed", 1));

    const platform::Platform cluster = load_platform(cli);
    std::cout << "cluster: " << cluster.describe() << "\n"
              << "sustainable throughput (one-port): "
              << experiments::max_throughput(cluster) << " tasks/s\n\n";

    core::Workload campaign;
    const std::string trace_path = cli.get("workload", "");
    if (!trace_path.empty()) {
      std::ifstream in(trace_path);
      if (!in) throw std::runtime_error("cannot open workload " + trace_path);
      campaign = core::read_workload(in);
      std::cout << "replaying " << campaign.size() << " tasks from "
                << trace_path << "\n";
    } else if (cli.get("arrival", "poisson") == "zero") {
      campaign = core::Workload::all_at_zero(n);
    } else if (cli.get("arrival", "poisson") == "poisson") {
      campaign = core::Workload::poisson(
          n, load * experiments::max_throughput(cluster), rng);
    } else {
      throw std::invalid_argument("--arrival must be zero or poisson");
    }

    const offline::LowerBounds lb = offline::lower_bounds(cluster, campaign);
    std::cout << "lower bounds (no schedule can beat these): makespan >= "
              << lb.makespan << ", sum-flow >= " << lb.sum_flow << "\n\n";

    util::Table table({"scheduler", "makespan", "max-flow", "sum-flow",
                       "makespan-vs-LB"});
    std::string best_makespan, best_max_flow, best_sum_flow;
    double mk = std::numeric_limits<double>::infinity();
    double mf = mk, sf = mk;
    for (const std::string& name : algorithms::paper_algorithm_names()) {
      const auto scheduler = algorithms::make_scheduler(name, campaign.size());
      const core::Schedule s = core::simulate(cluster, campaign, *scheduler);
      core::validate_or_throw(cluster, campaign, s);
      table.add_row({name, util::fmt(s.makespan(), 1),
                     util::fmt(s.max_flow(), 2), util::fmt(s.sum_flow(), 1),
                     util::fmt(s.makespan() / lb.makespan, 3)});
      if (s.makespan() < mk) { mk = s.makespan(); best_makespan = name; }
      if (s.max_flow() < mf) { mf = s.max_flow(); best_max_flow = name; }
      if (s.sum_flow() < sf) { sf = s.sum_flow(); best_sum_flow = name; }
    }
    std::cout << table.to_string() << "\n"
              << "recommendation for this cluster and campaign:\n"
              << "  finish earliest (makespan) : " << best_makespan << "\n"
              << "  fairest (max-flow)         : " << best_max_flow << "\n"
              << "  best turnaround (sum-flow) : " << best_sum_flow << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
