#pragma once

// Shared helpers for the campaign bench binaries: a CampaignConfig from
// `--key=value` flags, and the configuration echo every such bench prints
// before its table.

#include <iostream>
#include <stdexcept>
#include <string>

#include "experiments/campaign.hpp"
#include "util/cli.hpp"

namespace msol::bench {

inline experiments::CampaignConfig config_from_cli(const util::Cli& cli,
                                                   platform::PlatformClass cls) {
  experiments::CampaignConfig config;
  config.platform_class = cls;
  config.num_platforms =
      static_cast<int>(cli.get_int("platforms", config.num_platforms));
  config.num_slaves = static_cast<int>(cli.get_int("slaves", config.num_slaves));
  config.num_tasks = static_cast<int>(cli.get_int("tasks", config.num_tasks));
  config.seed = cli.get_uint64("seed", 2006);
  config.load = cli.get_double("load", config.load);
  config.lookahead =
      static_cast<int>(cli.get_int("lookahead", config.num_tasks));
  const std::string arrival = cli.get("arrival", "poisson");
  if (arrival == "zero") {
    config.arrival = experiments::ArrivalProcess::kAllAtZero;
  } else if (arrival == "poisson") {
    config.arrival = experiments::ArrivalProcess::kPoisson;
  } else if (arrival == "bursty") {
    config.arrival = experiments::ArrivalProcess::kBursty;
  } else {
    throw std::invalid_argument(
        "--arrival must be zero, poisson or bursty, not '" + arrival + "'");
  }
  return config;
}

inline void print_config(const experiments::CampaignConfig& config) {
  std::cout << "platform class : " << to_string(config.platform_class) << "\n"
            << "platforms      : " << config.num_platforms << " (seed "
            << config.seed << ")\n"
            << "slaves         : " << config.num_slaves << "\n"
            << "tasks          : " << config.num_tasks << " ("
            << to_string(config.arrival) << ", load " << config.load << ")\n"
            << "lookahead K    : " << config.lookahead << "\n\n";
}

}  // namespace msol::bench
