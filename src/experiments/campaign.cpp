#include "experiments/campaign.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/policy.hpp"
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
  // Summed in the greedy's fill order (ascending c_j), not slave order:
  // floating-point addition is order-sensitive, and this order is the one
  // every committed Poisson rate was derived with.
  const std::vector<double> shares = algorithms::wrr_shares(platform);
  double rate = 0.0;
  for (core::SlaveId j : platform.order_by_comm()) {
    rate += shares[static_cast<std::size_t>(j)];
  }
  return rate;
}

namespace {

core::Workload make_arrivals(const CampaignConfig& config,
                             const platform::Platform& platform,
                             util::Rng& rng) {
  const double rate = config.load * max_throughput(platform);
  const int burst = 25;
  switch (config.arrival) {
    case ArrivalProcess::kAllAtZero:
      return core::Workload::all_at_zero(config.num_tasks);
    case ArrivalProcess::kPoisson:
      return core::Workload::poisson(config.num_tasks, rate, rng);
    case ArrivalProcess::kBursty:
      return core::Workload::bursty(config.num_tasks, burst,
                                    static_cast<double>(burst) / rate, rng);
    case ArrivalProcess::kInhomogeneous:
      return core::Workload::inhomogeneous_poisson(
          config.num_tasks, rate, config.ipp_amplitude,
          config.ipp_period_tasks / rate, rng);
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

/// One algorithm's validated run on one instance.
struct SpecRun {
  core::Schedule schedule;
  core::DisruptionStats disruption;
  double switches = 0.0;  ///< meta-policy member changes, summed over shards
};

double switches_of(const core::OnlineScheduler& scheduler) {
  const auto* meta =
      dynamic_cast<const algorithms::meta::MetaPolicy*>(&scheduler);
  return meta != nullptr ? static_cast<double>(meta->switches()) : 0.0;
}

/// Runs `name` on (plat, workload) and validates what it produced. One
/// engine shard runs on simulate()'s thread-local engine, with no
/// ShardedEngine built. K > 1 shards run K one-port clusters: each shard is
/// checked against its own cluster, then the merged schedule against the
/// whole fleet's options, read in place, whose K masters may have K x c
/// sends in flight (c = 0 stays unbounded).
SpecRun run_spec(const CampaignConfig& config, const std::string& name,
                 const platform::Platform& plat, const core::Workload& workload,
                 const core::EngineOptions& options) {
  SpecRun run;
  if (config.engine_shards <= 1) {
    const auto scheduler = algorithms::make_scheduler(name, config.lookahead);
    run.schedule =
        simulate(plat, workload, *scheduler, options, &run.disruption);
    core::validate_or_throw(plat, workload, run.schedule, options);
    run.switches = switches_of(*scheduler);
    return run;
  }
  core::ShardedEngineOptions sharded_options;
  sharded_options.shards = config.engine_shards;
  sharded_options.routing = core::parse_shard_routing(config.shard_routing);
  sharded_options.shard_threads = config.shard_threads;
  sharded_options.engine = options;
  core::ShardedEngine sharded(
      plat, [&] { return algorithms::make_scheduler(name, config.lookahead); },
      std::move(sharded_options));
  sharded.load(workload);
  sharded.run_to_completion();
  for (int k = 0; k < sharded.num_shards(); ++k) {
    core::validate_or_throw(sharded.partition().shard_platform(k),
                            sharded.shard_workload(k),
                            sharded.shard_engine(k).schedule(),
                            sharded.shard_options(k));
    run.switches += switches_of(sharded.shard_scheduler(k));
  }
  run.schedule = sharded.schedule();
  core::validate_or_throw(plat, workload, run.schedule, options,
                          sharded.num_shards() * options.port_capacity);
  run.disruption = sharded.disruption();
  return run;
}

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
    // Draw order: size mix, then the Figure-2 jitter, then availability.
    // The jitter perturbs the sized tasks, and a campaign at size_jitter 0
    // draws the same platforms and releases as one with jitter, which is
    // what pairs Figure 2's jittered and identical runs. The pairing holds
    // only on static platforms: under a time-varying model the skipped
    // jitter draw shifts the availability realization.
    core::Workload workload = apply_size_mix(
        config, make_arrivals(config, plat, rep_rng), rep_rng);
    if (config.size_jitter > 0.0) {
      workload = workload.with_size_jitter(config.size_jitter, rep_rng);
    }
    const core::EngineOptions options =
        make_engine_options(config, plat, rep_rng);

    // SRPT is the paper's normalizer; run it first.
    std::map<std::string, SpecRun> runs;
    for (const std::string& name : names) {
      runs.emplace(name, run_spec(config, name, plat, workload, options));
    }

    const core::Schedule* srpt = nullptr;
    const auto it = runs.find("SRPT");
    if (it != runs.end()) srpt = &it->second.schedule;

    for (const std::string& name : names) {
      const SpecRun& run = runs.at(name);
      const core::Schedule& s = run.schedule;
      RawValues& values = raw[name];
      values.makespan.push_back(s.makespan());
      values.max_flow.push_back(s.max_flow());
      values.sum_flow.push_back(s.sum_flow());
      values.redispatches.push_back(
          static_cast<double>(run.disruption.redispatches));
      values.lost_work.push_back(run.disruption.lost_work);
      values.switches.push_back(run.switches);
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

}  // namespace msol::experiments
