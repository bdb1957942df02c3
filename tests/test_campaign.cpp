#include <gtest/gtest.h>

#include <vector>

#include "experiments/campaign.hpp"
#include "platform/availability.hpp"
#include "platform/platform.hpp"

namespace msol::experiments {
namespace {

using platform::Platform;
using platform::PlatformClass;
using platform::SlaveSpec;

CampaignConfig small_config(PlatformClass cls) {
  CampaignConfig config;
  config.platform_class = cls;
  config.num_platforms = 3;
  config.num_slaves = 4;
  config.num_tasks = 60;
  config.seed = 99;
  config.lookahead = 60;
  return config;
}

TEST(MaxThroughput, PortBoundWhenLinksAreSlow) {
  // c=1 everywhere: the port ships at most 1 task/s no matter the slaves.
  const Platform plat = Platform::homogeneous(4, 1.0, 0.5);
  EXPECT_NEAR(max_throughput(plat), 1.0, 1e-12);
}

TEST(MaxThroughput, ComputeBoundWhenLinksAreFast) {
  // c tiny: every slave runs flat out -> sum 1/p.
  const Platform plat = Platform::homogeneous(4, 1e-4, 2.0);
  EXPECT_NEAR(max_throughput(plat), 2.0, 1e-2);
}

TEST(MaxThroughput, MixedCaseFillsCheapLinksFirst)  {
  // P0: c=0.5, p=1 (uses 0.5 port budget for rate 1);
  // P1: c=1, p=2 (would need 0.5 for rate 0.5) -> total exactly 1.5.
  const Platform plat({SlaveSpec{0.5, 1.0}, SlaveSpec{1.0, 2.0}});
  EXPECT_NEAR(max_throughput(plat), 1.5, 1e-12);
}

TEST(Campaign, DeterministicInSeed) {
  const CampaignConfig config = small_config(PlatformClass::kFullyHeterogeneous);
  const CampaignResult a = run_campaign(config);
  const CampaignResult b = run_campaign(config);
  ASSERT_EQ(a.algorithms.size(), b.algorithms.size());
  for (std::size_t i = 0; i < a.algorithms.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.algorithms[i].makespan.mean,
                     b.algorithms[i].makespan.mean);
    EXPECT_DOUBLE_EQ(a.algorithms[i].norm_sum_flow.mean,
                     b.algorithms[i].norm_sum_flow.mean);
  }
}

TEST(Campaign, SrptNormalizesToOne) {
  const CampaignResult r =
      run_campaign(small_config(PlatformClass::kCommHomogeneous));
  for (const AlgorithmResult& alg : r.algorithms) {
    if (alg.name == "SRPT") {
      EXPECT_DOUBLE_EQ(alg.norm_makespan.mean, 1.0);
      EXPECT_DOUBLE_EQ(alg.norm_max_flow.mean, 1.0);
      EXPECT_DOUBLE_EQ(alg.norm_sum_flow.mean, 1.0);
    }
  }
}

TEST(Campaign, RunsAllSevenPaperAlgorithmsByDefault) {
  const CampaignResult r =
      run_campaign(small_config(PlatformClass::kFullyHomogeneous));
  ASSERT_EQ(r.algorithms.size(), 7u);
  EXPECT_EQ(r.algorithms[0].name, "SRPT");
  for (const AlgorithmResult& alg : r.algorithms) {
    EXPECT_EQ(alg.makespan.count, 3u);
    EXPECT_GT(alg.makespan.mean, 0.0);
    EXPECT_GE(alg.sum_flow.mean, alg.max_flow.mean);  // n >= 1 tasks
  }
}

TEST(Campaign, CustomAlgorithmListIsHonored) {
  CampaignConfig config = small_config(PlatformClass::kFullyHeterogeneous);
  config.algorithms = {"SRPT", "LS"};
  const CampaignResult r = run_campaign(config);
  ASSERT_EQ(r.algorithms.size(), 2u);
  EXPECT_EQ(r.algorithms[1].name, "LS");
}

TEST(Campaign, StaticPoliciesBeatSrptOnHomogeneousPlatforms) {
  // Figure 1(a): "all static algorithms ... exhibit better performance than
  // the dynamic heuristic SRPT" — because SRPT refuses to queue ahead.
  CampaignConfig config = small_config(PlatformClass::kFullyHomogeneous);
  config.num_platforms = 5;
  config.num_tasks = 200;
  config.lookahead = 200;
  const CampaignResult r = run_campaign(config);
  for (const AlgorithmResult& alg : r.algorithms) {
    if (alg.name == "SRPT") continue;
    EXPECT_LE(alg.norm_sum_flow.mean, 1.0 + 1e-9) << alg.name;
  }
}

TEST(Campaign, ArrivalProcessesAllRun) {
  for (ArrivalProcess arrival :
       {ArrivalProcess::kAllAtZero, ArrivalProcess::kPoisson,
        ArrivalProcess::kBursty}) {
    CampaignConfig config = small_config(PlatformClass::kCompHomogeneous);
    config.arrival = arrival;
    config.algorithms = {"SRPT", "LS"};
    const CampaignResult r = run_campaign(config);
    EXPECT_EQ(r.algorithms.size(), 2u) << to_string(arrival);
  }
}

TEST(Campaign, UnboundedPortNeverHurtsListScheduling) {
  // Relaxing the one-port constraint can only speed LS's completions.
  CampaignConfig one_port = small_config(PlatformClass::kFullyHeterogeneous);
  one_port.algorithms = {"SRPT", "LS"};
  CampaignConfig unbounded = one_port;
  unbounded.port_capacity = 0;
  const CampaignResult a = run_campaign(one_port);
  const CampaignResult b = run_campaign(unbounded);
  EXPECT_LE(b.algorithms[1].makespan.mean,
            a.algorithms[1].makespan.mean + 1e-9);
}

TEST(Campaign, ValidatesMergedShardedScheduleUnderChurn) {
  // K = 2 least-loaded shards on a churning fleet: each shard's schedule is
  // checked against its own cluster, then the merged one against the whole
  // fleet with 2 ports. Re-dispatches show the outages reached the shards.
  CampaignConfig config = small_config(PlatformClass::kFullyHeterogeneous);
  config.engine_shards = 2;
  config.shard_routing = "least-loaded";
  config.avail = platform::AvailabilityModel::kChurn;
  config.mtbf_tasks = 10.0;
  config.outage_frac = 0.2;
  config.algorithms = {"SRPT", "LS", "RR"};
  CampaignResult result;
  EXPECT_NO_THROW(result = run_campaign(config));
  ASSERT_EQ(result.algorithms.size(), 3u);
  double redispatches = 0.0;
  for (const AlgorithmResult& alg : result.algorithms) {
    EXPECT_EQ(alg.makespan.count, 3u) << alg.name;
    redispatches += alg.redispatches.mean;
  }
  EXPECT_GT(redispatches, 0.0);
}

TEST(Campaign, ValidatesJitteredEngineShardedRuns) {
  // A jittered campaign on a K = 2 least-loaded federation is checked per
  // shard and merged, not refused.
  CampaignConfig config = small_config(PlatformClass::kFullyHeterogeneous);
  config.size_jitter = 0.10;
  config.engine_shards = 2;
  config.shard_routing = "least-loaded";
  CampaignResult result;
  EXPECT_NO_THROW(result = run_campaign(config));
  EXPECT_EQ(result.algorithms.size(), 7u);
}

TEST(Campaign, ValidatesJitteredRunsUnderChurn) {
  // Jittered tasks are checked against the one-port model with the cell's
  // availability profiles; a mis-wired validation (against the unjittered
  // workload, or without the profiles that explain its re-dispatches)
  // throws here.
  CampaignConfig config = small_config(PlatformClass::kFullyHeterogeneous);
  config.size_jitter = 0.25;
  config.avail = platform::AvailabilityModel::kChurn;
  config.mtbf_tasks = 10.0;
  config.outage_frac = 0.2;
  config.algorithms = {"LS", "SRPT"};
  CampaignResult result;
  EXPECT_NO_THROW(result = run_campaign(config));
  EXPECT_EQ(result.algorithms.size(), 2u);
}

}  // namespace
}  // namespace msol::experiments
