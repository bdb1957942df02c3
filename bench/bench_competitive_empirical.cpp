// Beyond the paper: empirical competitive ratios. Table 1 lower-bounds the
// worst case of *any* deterministic algorithm; this bench measures, for each
// implemented heuristic, the worst (objective / exhaustive optimum) ratio
// observed over many small random instances of each platform class. It
// quantifies how far the heuristics sit from the theoretical frontier and
// answers the paper's open question ("which of these bounds can be met")
// experimentally for this algorithm portfolio.

#include <iostream>
#include <map>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "offline/exhaustive.hpp"
#include "platform/generator.hpp"
#include "theory/bounds.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace msol;
  const util::Cli cli(argc, argv);
  const int instances = static_cast<int>(cli.get_int("instances", 200));
  const int tasks = static_cast<int>(cli.get_int("tasks", 6));
  const int slaves = static_cast<int>(cli.get_int("slaves", 3));
  util::Rng rng(cli.get_uint64("seed", 2006));

  std::cout << "=== Empirical competitive ratios: worst observed "
               "heuristic/optimum over " << instances
            << " random instances (n=" << tasks << ", m=" << slaves
            << ") ===\n\n";

  const auto classes = {platform::PlatformClass::kCommHomogeneous,
                        platform::PlatformClass::kCompHomogeneous,
                        platform::PlatformClass::kFullyHeterogeneous};

  util::Table table({"platform", "objective", "table1-bound", "SRPT", "LS",
                     "RR", "RRC", "RRP", "SLJF", "SLJFWC"});
  platform::PlatformGenerator gen;
  for (platform::PlatformClass cls : classes) {
    // worst[alg][objective]
    std::map<std::string, std::map<core::Objective, double>> worst;
    for (int rep = 0; rep < instances; ++rep) {
      util::Rng rep_rng = rng.fork();
      const platform::Platform plat = gen.generate(cls, slaves, rep_rng);
      const core::Workload work =
          core::Workload::poisson(tasks, 2.0 / plat.min_comp(), rep_rng);
      const offline::OptimalTriple opt =
          offline::solve_optimal_all(plat, work);
      for (const std::string& name : algorithms::paper_algorithm_names()) {
        const auto scheduler = algorithms::make_scheduler(name, tasks);
        const core::Schedule s = core::simulate(plat, work, *scheduler);
        for (core::Objective obj : core::all_objectives()) {
          const double ratio = s.objective(obj) / opt.get(obj);
          double& slot = worst[name][obj];
          slot = std::max(slot, ratio);
        }
      }
    }
    for (core::Objective obj : core::all_objectives()) {
      double bound = 0.0;
      for (const theory::TheoremInfo& info : theory::table1_info()) {
        if (info.platform_class == cls && info.objective == obj) {
          bound = info.bound;
        }
      }
      std::vector<std::string> row = {to_string(cls), to_string(obj),
                                      util::fmt(bound)};
      for (const std::string& name : algorithms::paper_algorithm_names()) {
        row.push_back(util::fmt(worst[name][obj]));
      }
      table.add_row(std::move(row));
    }
  }
  std::cout << (cli.has("csv") ? table.to_csv() : table.to_string());
  std::cout << "\n(each heuristic's worst observed ratio; Table 1 proves the "
               "worst case of ANY deterministic\n algorithm is at least the "
               "bound, so cells below it just mean the adversarial instance "
               "was not drawn)\n";
  return 0;
}
