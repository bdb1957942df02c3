#include "experiments/campaign.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "core/validator.hpp"
#include "core/workload.hpp"
#include "util/rng.hpp"

namespace msol::experiments {

std::string to_string(ArrivalProcess arrival) {
  switch (arrival) {
    case ArrivalProcess::kAllAtZero: return "all-at-zero";
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBursty: return "bursty";
    case ArrivalProcess::kInhomogeneous: return "inhomogeneous";
  }
  return "unknown";
}

std::string to_string(TaskSizeMix mix) {
  switch (mix) {
    case TaskSizeMix::kUnit: return "unit";
    case TaskSizeMix::kPareto: return "pareto";
    case TaskSizeMix::kLognormal: return "lognormal";
  }
  return "unknown";
}

double max_throughput(const platform::Platform& platform) {
  // Fill the port budget (1 second of port time per second) with the
  // cheapest links first; each slave contributes at most 1/p_j tasks/s.
  double budget = 1.0;
  double rate = 0.0;
  for (core::SlaveId j : platform.order_by_comm()) {
    const double full_rate = 1.0 / platform.comp(j);
    const double port_cost = platform.comm(j) * full_rate;
    if (port_cost <= budget) {
      budget -= port_cost;
      rate += full_rate;
    } else {
      rate += budget / platform.comm(j);
      budget = 0.0;
      break;
    }
  }
  return rate;
}

namespace {

core::Workload make_arrivals(const CampaignConfig& config,
                             const platform::Platform& platform,
                             util::Rng& rng) {
  switch (config.arrival) {
    case ArrivalProcess::kAllAtZero:
      return core::Workload::all_at_zero(config.num_tasks);
    case ArrivalProcess::kPoisson: {
      const double rate = config.load * max_throughput(platform);
      return core::Workload::poisson(config.num_tasks, rate, rng);
    }
    case ArrivalProcess::kBursty: {
      const double rate = config.load * max_throughput(platform);
      const int burst = 25;
      return core::Workload::bursty(config.num_tasks, burst,
                                    static_cast<double>(burst) / rate, rng);
    }
    case ArrivalProcess::kInhomogeneous: {
      const double rate = config.load * max_throughput(platform);
      return core::Workload::inhomogeneous_poisson(
          config.num_tasks, rate, config.ipp_amplitude,
          config.ipp_period_tasks / rate, rng);
    }
  }
  throw std::logic_error("make_arrivals: unknown arrival process");
}

/// Applies the configured heavy-tail/lognormal size mix (no jitter).
core::Workload apply_size_mix(const CampaignConfig& config,
                              core::Workload workload, util::Rng& rng) {
  switch (config.size_mix) {
    case TaskSizeMix::kUnit:
      break;
    case TaskSizeMix::kPareto:
      workload = workload.with_pareto_sizes(1.5, 20.0, rng);
      break;
    case TaskSizeMix::kLognormal:
      workload = workload.with_lognormal_noise(0.4, 0.4, rng);
      break;
  }
  return workload;
}

/// Size mix first, then the Figure-2 jitter, in that fixed order so the
/// jitter perturbs the *sized* tasks the way the robustness experiment
/// intends.
core::Workload shape_workload(const CampaignConfig& config,
                              core::Workload workload, util::Rng& rng) {
  workload = apply_size_mix(config, std::move(workload), rng);
  if (config.size_jitter > 0.0) {
    workload = workload.with_size_jitter(config.size_jitter, rng);
  }
  return workload;
}

std::vector<std::string> algorithm_names(const CampaignConfig& config) {
  return config.algorithms.empty() ? algorithms::paper_algorithm_names()
                                   : config.algorithms;
}

/// The rep's engine options: port capacity plus, for time-varying models,
/// one availability realization shared by every algorithm so they are
/// measured against the identical sequence of outages. kAlways draws
/// nothing from the rng (legacy cells stay bit-identical).
core::EngineOptions make_engine_options(const CampaignConfig& config,
                                        const platform::Platform& platform,
                                        util::Rng& rng) {
  core::EngineOptions options;
  options.port_capacity = config.port_capacity;
  if (config.avail != platform::AvailabilityModel::kAlways) {
    const double rate = config.load * max_throughput(platform);
    const double mtbf = config.mtbf_tasks / rate;
    // Generous horizon: an arrival-dominated campaign drains in about
    // num_tasks / rate seconds; outages stretch that, so cover 4x. Beyond
    // the horizon the final (always-online) profile state persists.
    const core::Time horizon = 4.0 * config.num_tasks / rate;
    options.availability = platform::generate_availability(
        config.avail, config.num_slaves, mtbf, config.outage_frac, horizon,
        rng);
  }
  return options;
}

struct RawValues {
  std::vector<double> makespan, max_flow, sum_flow;
  std::vector<double> norm_makespan, norm_max_flow, norm_sum_flow;
  std::vector<double> redispatches, lost_work;
  std::vector<double> switches;
};

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config) {
  const std::vector<std::string> names = algorithm_names(config);
  if (names.empty()) {
    throw std::invalid_argument("run_campaign: no algorithms requested");
  }

  util::Rng rng(config.seed);
  platform::PlatformGenerator generator(config.ranges);
  std::map<std::string, RawValues> raw;

  for (int rep = 0; rep < config.num_platforms; ++rep) {
    util::Rng rep_rng = rng.fork();
    const platform::Platform plat = generator.generate(
        config.platform_class, config.num_slaves, rep_rng);
    const core::Workload workload =
        shape_workload(config, make_arrivals(config, plat, rep_rng), rep_rng);

    const core::EngineOptions options =
        make_engine_options(config, plat, rep_rng);

    // SRPT is the paper's normalizer; run it first.
    std::map<std::string, core::Schedule> schedules;
    std::map<std::string, core::DisruptionStats> disruptions;
    for (const std::string& name : names) {
      core::Schedule schedule;
      core::DisruptionStats disruption;
      double switches = 0.0;
      if (config.engine_shards <= 1) {
        auto scheduler = algorithms::make_scheduler(name, config.lookahead);
        schedule = simulate(plat, workload, *scheduler, options, &disruption);
        core::validate_or_throw(plat, workload, schedule, options);
        const auto* meta = dynamic_cast<const algorithms::meta::MetaPolicy*>(
            scheduler.get());
        if (meta != nullptr) switches = static_cast<double>(meta->switches());
      } else {
        // Sharded fleet: K one-port clusters, one scheduler instance each.
        // Every shard's schedule is validated against its own cluster's
        // one-port model; the merged global schedule feeds the metrics.
        core::ShardedEngineOptions sharded_options;
        sharded_options.shards = config.engine_shards;
        sharded_options.routing = core::parse_shard_routing(
            config.shard_routing);
        sharded_options.shard_threads = config.shard_threads;
        sharded_options.engine = options;
        core::ShardedEngine sharded(
            plat,
            [&] { return algorithms::make_scheduler(name, config.lookahead); },
            std::move(sharded_options));
        sharded.load(workload);
        sharded.run_to_completion();
        for (int k = 0; k < sharded.num_shards(); ++k) {
          core::validate_or_throw(sharded.partition().shard_platform(k),
                                  sharded.shard_workload(k),
                                  sharded.shard_engine(k).schedule(),
                                  sharded.shard_options(k));
          const auto* meta =
              dynamic_cast<const algorithms::meta::MetaPolicy*>(
                  &sharded.shard_scheduler(k));
          if (meta != nullptr) {
            switches += static_cast<double>(meta->switches());
          }
        }
        schedule = sharded.schedule();
        disruption = sharded.disruption();
      }
      schedules.emplace(name, std::move(schedule));
      disruptions.emplace(name, disruption);
      raw[name].switches.push_back(switches);
    }

    const core::Schedule* srpt = nullptr;
    const auto it = schedules.find("SRPT");
    if (it != schedules.end()) srpt = &it->second;

    for (const std::string& name : names) {
      const core::Schedule& s = schedules.at(name);
      const core::DisruptionStats& d = disruptions.at(name);
      RawValues& values = raw[name];
      values.makespan.push_back(s.makespan());
      values.max_flow.push_back(s.max_flow());
      values.sum_flow.push_back(s.sum_flow());
      values.redispatches.push_back(static_cast<double>(d.redispatches));
      values.lost_work.push_back(d.lost_work);
      if (srpt != nullptr) {
        values.norm_makespan.push_back(s.makespan() / srpt->makespan());
        values.norm_max_flow.push_back(s.max_flow() / srpt->max_flow());
        values.norm_sum_flow.push_back(s.sum_flow() / srpt->sum_flow());
      }
    }
  }

  CampaignResult result;
  result.config = config;
  for (const std::string& name : names) {
    const RawValues& values = raw.at(name);
    AlgorithmResult r;
    r.name = name;
    r.spec = algorithms::canonical_spec(name, config.lookahead);
    r.makespan = util::summarize(values.makespan);
    r.max_flow = util::summarize(values.max_flow);
    r.sum_flow = util::summarize(values.sum_flow);
    r.norm_makespan = util::summarize(values.norm_makespan);
    r.norm_max_flow = util::summarize(values.norm_max_flow);
    r.norm_sum_flow = util::summarize(values.norm_sum_flow);
    r.redispatches = util::summarize(values.redispatches);
    r.lost_work = util::summarize(values.lost_work);
    r.switches = util::summarize(values.switches);
    r.makespan_raw = values.makespan;
    r.max_flow_raw = values.max_flow;
    r.sum_flow_raw = values.sum_flow;
    result.algorithms.push_back(std::move(r));
  }
  return result;
}

std::vector<RobustnessResult> run_robustness(const CampaignConfig& config) {
  if (config.size_jitter <= 0.0) {
    throw std::invalid_argument(
        "run_robustness: config.size_jitter must be positive");
  }
  if (config.engine_shards != 1) {
    throw std::invalid_argument(
        "run_robustness: engine sharding is not supported (engine_shards "
        "must be 1)");
  }
  const std::vector<std::string> names = algorithm_names(config);

  util::Rng rng(config.seed);
  platform::PlatformGenerator generator(config.ranges);
  std::map<std::string, RawValues> raw;  // only *_ratio slots used

  for (int rep = 0; rep < config.num_platforms; ++rep) {
    util::Rng rep_rng = rng.fork();
    const platform::Platform plat = generator.generate(
        config.platform_class, config.num_slaves, rep_rng);
    const core::Workload identical = apply_size_mix(
        config, make_arrivals(config, plat, rep_rng), rep_rng);
    const core::Workload jittered =
        identical.with_size_jitter(config.size_jitter, rep_rng);
    const core::EngineOptions options =
        make_engine_options(config, plat, rep_rng);

    for (const std::string& name : names) {
      auto scheduler = algorithms::make_scheduler(name, config.lookahead);
      const core::Schedule base = simulate(plat, identical, *scheduler, options);
      const core::Schedule pert = simulate(plat, jittered, *scheduler, options);
      core::validate_or_throw(plat, identical, base, options);
      core::validate_or_throw(plat, jittered, pert, options);

      RawValues& values = raw[name];
      values.makespan.push_back(pert.makespan() / base.makespan());
      values.max_flow.push_back(pert.max_flow() / base.max_flow());
      values.sum_flow.push_back(pert.sum_flow() / base.sum_flow());
    }
  }

  std::vector<RobustnessResult> out;
  for (const std::string& name : names) {
    const RawValues& values = raw.at(name);
    RobustnessResult r;
    r.name = name;
    r.makespan_ratio = util::summarize(values.makespan);
    r.max_flow_ratio = util::summarize(values.max_flow);
    r.sum_flow_ratio = util::summarize(values.sum_flow);
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace msol::experiments
