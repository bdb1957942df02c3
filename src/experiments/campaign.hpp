#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "platform/availability.hpp"
#include "platform/generator.hpp"
#include "platform/platform.hpp"
#include "util/stats.hpp"

namespace msol::experiments {

/// How release times are drawn for a campaign. The paper streams "one
/// thousand tasks" but does not document the arrival process, so it is a
/// first-class, swept parameter here (see examples/paper/arrival.grid).
enum class ArrivalProcess {
  kAllAtZero,      ///< whole bag available up front
  kPoisson,        ///< exponential inter-arrivals at `load` x system capacity
  kBursty,         ///< bursts of 25 at Poisson-distributed instants
  kInhomogeneous,  ///< sinusoidally modulated Poisson (thinning), same mean
                   ///< rate as kPoisson but alternating crests and troughs
};

std::string to_string(ArrivalProcess arrival);

/// Per-task size distribution applied on top of the arrival process (before
/// the Figure-2 jitter). The paper's tasks are identical (kUnit); the mixes
/// model real bag-of-tasks campaigns where payloads span orders of
/// magnitude.
enum class TaskSizeMix {
  kUnit,       ///< identical unit tasks (the paper's setting)
  kPareto,     ///< heavy tail: Pareto(alpha = 1.5) normalized to mean 1,
               ///< truncated at 20x
  kLognormal,  ///< moderate spread: independent lognormal (sigma = 0.4) on
               ///< comm and comp
};

std::string to_string(TaskSizeMix mix);

/// One Figure-1-style campaign: N random platforms of one class, a task
/// stream per platform, every algorithm on the identical instance.
struct CampaignConfig {
  platform::PlatformClass platform_class =
      platform::PlatformClass::kFullyHeterogeneous;
  int num_platforms = 10;  ///< the paper's "ten random platforms"
  int num_slaves = 5;      ///< the paper's five machines
  int num_tasks = 1000;    ///< the paper's one thousand tasks
  std::uint64_t seed = 2006;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  double load = 0.9;       ///< arrival rate as a fraction of max throughput
  double size_jitter = 0.0;  ///< Figure 2: 0.10 (tasks vary by up to 10%)
  TaskSizeMix size_mix = TaskSizeMix::kUnit;
  /// kInhomogeneous knobs: modulation depth in [0, 1], and the wave period
  /// expressed in mean inter-arrival times (period_time = tasks / rate), so
  /// one crest-trough cycle spans about that many arrivals at any load.
  double ipp_amplitude = 0.9;
  double ipp_period_tasks = 50.0;
  /// Time-varying slave availability (outages / speed drift). kAlways is
  /// the paper's static platform and draws nothing from the rng, so legacy
  /// campaigns reproduce bit-identically. `mtbf_tasks` is the mean online
  /// time between failures (kChurn) or between speed changes (kDrift),
  /// expressed in mean inter-arrival times like ipp_period_tasks;
  /// `outage_frac` is the target offline fraction of the horizon.
  platform::AvailabilityModel avail = platform::AvailabilityModel::kAlways;
  double mtbf_tasks = 50.0;
  double outage_frac = 0.1;
  int lookahead = 1000;    ///< SLJF/SLJFWC planned-task count K
  int port_capacity = 1;   ///< 1 = one-port; 0 = unbounded (ablation)
  /// Engine sharding (core/sharded_engine.hpp): 1 runs the single
  /// OnePortEngine exactly as before (byte-identical legacy path); K > 1
  /// partitions the platform into K one-port clusters with `shard_routing`
  /// ("hash", "round-robin", "least-loaded") deciding where each released
  /// task lands. Requires engine_shards <= num_slaves.
  int engine_shards = 1;
  std::string shard_routing = "hash";
  /// Threads advancing the shards of a sharded cell (ShardedEngineOptions::
  /// shard_threads): 1 = sequential, 0 = hardware concurrency, clamped to
  /// engine_shards. Output is byte-identical at any value — this is purely
  /// a wall-clock knob. Ignored when engine_shards == 1.
  int shard_threads = 1;
  std::vector<std::string> algorithms;  ///< empty = the paper's seven
  platform::GeneratorRanges ranges;     ///< paper defaults
};

/// Aggregates for one algorithm across the campaign's platforms.
struct AlgorithmResult {
  std::string name;
  /// Canonical policy-spec decomposition of `name` (filter/rank/tie/gate
  /// clauses, see algorithms/policy_spec.hpp), echoed by the result sinks
  /// so sweep outputs are self-describing.
  std::string spec;
  util::Summary makespan;   ///< raw values
  util::Summary max_flow;
  util::Summary sum_flow;
  util::Summary norm_makespan;  ///< value / SRPT's value, per platform
  util::Summary norm_max_flow;
  util::Summary norm_sum_flow;
  /// Availability-disruption counters per platform, summarized: how many
  /// re-dispatches the outages forced and how much partial compute they
  /// discarded. All-zero under AvailabilityModel::kAlways.
  util::Summary redispatches;
  util::Summary lost_work;
  /// Meta-policy member changes per platform (portfolio chose a different
  /// member than last decision; hedge crossed a regime boundary).
  /// All-zero for plain composed policies.
  util::Summary switches;
  /// Per-platform raw series behind the summaries, index-aligned with the
  /// campaign's repetitions (entry r is platform r). Result sinks and
  /// cross-campaign significance tests need the unaggregated values.
  std::vector<double> makespan_raw;
  std::vector<double> max_flow_raw;
  std::vector<double> sum_flow_raw;
};

struct CampaignResult {
  CampaignConfig config;
  std::vector<AlgorithmResult> algorithms;
};

/// Runs the campaign; every produced schedule is validated against the
/// one-port model before being measured (a sharded run per shard, then its
/// merged schedule against the whole fleet). Deterministic in `config.seed`.
CampaignResult run_campaign(const CampaignConfig& config);

/// Maximum sustainable task throughput of a platform under the one-port
/// model: maximize sum x_j subject to sum c_j x_j <= 1 (port) and
/// x_j <= 1/p_j (slave speed): the sum of algorithms::wrr_shares.
/// Used to convert `load` into a Poisson arrival rate.
double max_throughput(const platform::Platform& platform);

}  // namespace msol::experiments
