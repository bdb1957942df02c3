// Regenerates Figure 2: robustness of the seven heuristics when each
// dispatched task's size is jittered by up to +/-10% while the schedulers
// keep assuming identical tasks. Reported per algorithm: metric under
// jitter divided by the metric with identical tasks, on the same platforms
// and release streams.

#include <iostream>

#include "bench_common.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace msol;
  const util::Cli cli(argc, argv);
  experiments::CampaignConfig config = bench::config_from_cli(
      cli, platform::PlatformClass::kFullyHeterogeneous);
  config.size_jitter = cli.get_double("jitter", 0.10);

  std::cout << "=== Figure 2: robustness to +/-" << config.size_jitter * 100.0
            << "% task-size jitter ===\n";
  bench::print_config(config);

  util::Table table({"algorithm", "makespan-ratio", "sum-flow-ratio",
                     "max-flow-ratio"});
  for (const experiments::RobustnessResult& r :
       experiments::run_robustness(config)) {
    table.add_row({r.name, util::fmt(r.makespan_ratio.mean),
                   util::fmt(r.sum_flow_ratio.mean),
                   util::fmt(r.max_flow_ratio.mean)});
  }
  std::cout << (cli.has("csv") ? table.to_csv() : table.to_string());
  std::cout << "\n(1.0 = unaffected by jitter; the paper observes makespan "
               "is robust,\n sum-flow and max-flow noticeably less so)\n";
  return 0;
}
