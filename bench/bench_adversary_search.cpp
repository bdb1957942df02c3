// Automated adversaries: hill-climb small instances against each heuristic
// and report the worst ratio found, next to Table 1's universal lower
// bound. Where the search matches or beats the bound, the hand-crafted
// proof is rediscovered mechanically; where a heuristic resists, we get an
// empirical upper estimate of its competitiveness — the paper's open
// question ("which of these bounds can be met") probed by machine.

#include <iostream>

#include "algorithms/registry.hpp"
#include "theory/bounds.hpp"
#include "theory/search.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace msol;
  const util::Cli cli(argc, argv);
  theory::SearchConfig config;
  config.iterations = static_cast<int>(cli.get_int("iterations", 800));
  config.restarts = static_cast<int>(cli.get_int("restarts", 3));
  config.num_tasks = static_cast<int>(cli.get_int("tasks", 4));
  config.seed = cli.get_uint64("seed", 2006);

  std::cout << "=== Hill-climbed adversarial instances (n=" << config.num_tasks
            << " tasks, " << config.restarts << "x" << config.iterations
            << " steps) ===\n\n";

  const std::vector<std::string> algorithms = {"SRPT", "LS", "RR", "RRC",
                                               "RRP", "MINREADY", "WRR"};
  util::Table table({"platform", "objective", "table1-bound", "algorithm",
                     "worst-ratio-found"});
  for (const theory::TheoremInfo& info : theory::table1_info()) {
    config.platform_class = info.platform_class;
    config.objective = info.objective;
    config.num_slaves =
        info.platform_class == platform::PlatformClass::kFullyHeterogeneous ? 3
                                                                            : 2;
    for (const std::string& name : algorithms) {
      const auto scheduler = algorithms::make_scheduler(name);
      const theory::SearchResult result =
          theory::adversarial_search(*scheduler, config);
      table.add_row({to_string(info.platform_class), to_string(info.objective),
                     util::fmt(info.bound), name, util::fmt(result.ratio)});
    }
  }
  std::cout << (cli.has("csv") ? table.to_csv() : table.to_string());
  std::cout << "\n(worst-ratio >= bound means the search rediscovered an "
               "instance as hard as the proof's;\n smaller values only say "
               "this search did not find one)\n";
  return 0;
}
