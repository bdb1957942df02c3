// Capacity planner: how many (and which) slaves does a campaign need?
//
// Given a pool of candidate machines (a platform file, or a built-in
// example) and a campaign (task count + deadline, or a target throughput),
// this tool uses the one-port throughput LP and the closed-form lower
// bounds to size the platform, then verifies the plan by simulation with
// the library's best scheduler for the objective.
//
//   $ ./examples/capacity_planner --tasks=2000 --deadline=400
//   $ ./examples/capacity_planner --throughput=3.5 --platform=pool.txt

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "algorithms/registry.hpp"
#include "algorithms/policy.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "offline/bounds.hpp"
#include "platform/io.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

msol::platform::Platform load_pool(const msol::util::Cli& cli) {
  const std::string path = cli.get("platform", "");
  if (!path.empty()) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open platform file " + path);
    return msol::platform::read(in);
  }
  // A machine-room pool: a couple of fast boxes, a rack of mid machines,
  // and some scavenged desktops on slow links.
  return msol::platform::Platform({
      {0.04, 0.5}, {0.04, 0.6},                    // fast, wired
      {0.10, 1.2}, {0.10, 1.3}, {0.12, 1.2},       // mid rack
      {0.40, 2.0}, {0.45, 2.2}, {0.60, 1.8},       // desktops, slow links
  });
}

}  // namespace

int main(int argc, char** argv) {
  using namespace msol;
  try {
    const util::Cli cli(argc, argv);
    const platform::Platform pool = load_pool(cli);
    const int tasks = cli.get_int("tasks", 2000, 1);
    // 0 means "not given" below, so a given value must be > 0: a mistyped
    // sign would otherwise silently print the whole scaling curve.
    const auto positive_or_absent = [&cli](const std::string& key) {
      const double value = cli.get_double(key, 0.0);
      if (cli.has(key) && !(value > 0.0)) {
        throw std::invalid_argument("--" + key + " must be > 0, got " +
                                    cli.get(key, ""));
      }
      return value;
    };
    const double deadline = positive_or_absent("deadline");
    const double target_rate = positive_or_absent("throughput");

    std::cout << "candidate pool: " << pool.describe() << "\n";
    const std::vector<double> shares = algorithms::wrr_shares(pool);

    // Grow the platform one slave at a time, best marginal throughput
    // first (which is exactly the order the LP saturates links in).
    std::vector<core::SlaveId> chosen;
    util::Table table({"slaves", "added", "throughput[/s]",
                       "makespan-LB[s]", "simulated-makespan[s]", "policy"});
    std::vector<platform::SlaveSpec> specs;
    bool satisfied = false;
    for (core::SlaveId j : pool.order_by_comm()) {
      if (shares[static_cast<std::size_t>(j)] <= 0.0 && !specs.empty()) {
        continue;  // the port cannot feed this slave at all
      }
      specs.push_back(pool.at(j));
      chosen.push_back(j);
      const platform::Platform sized{std::vector<platform::SlaveSpec>(specs)};
      const double rate = experiments::max_throughput(sized);

      const core::Workload campaign = core::Workload::all_at_zero(tasks);
      const offline::LowerBounds lb = offline::lower_bounds(sized, campaign);
      const auto scheduler = algorithms::make_scheduler("SLJFWC", tasks);
      const core::Schedule s = core::simulate(sized, campaign, *scheduler);
      core::validate_or_throw(sized, campaign, s);

      table.add_row({std::to_string(sized.size()),
                     "P" + std::to_string(j), util::fmt(rate, 3),
                     util::fmt(lb.makespan, 1), util::fmt(s.makespan(), 1),
                     scheduler->name()});

      const bool rate_ok = target_rate <= 0.0 || rate >= target_rate;
      const bool deadline_ok = deadline <= 0.0 || s.makespan() <= deadline;
      if (rate_ok && deadline_ok && (target_rate > 0.0 || deadline > 0.0)) {
        satisfied = true;
        break;
      }
    }
    std::cout << table.to_string() << "\n";

    if (deadline > 0.0 || target_rate > 0.0) {
      if (satisfied) {
        std::cout << "requirement met with " << chosen.size()
                  << " slave(s):";
        for (core::SlaveId j : chosen) std::cout << " P" << j;
        std::cout << "\n";
      } else {
        std::cout << "requirement NOT met even with the whole pool — "
                     "the single master port is the bottleneck.\n";
      }
    } else {
      std::cout << "(no --deadline or --throughput given: showing the whole "
                   "scaling curve)\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
