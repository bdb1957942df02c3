// Randomized stress for the engine: random platforms, random probe/inject
// interleavings, random port capacities and slowdown windows, and random
// (but legal) scheduler behaviour or a registry policy, meta policies
// included — after every run the from-scratch validator must accept the
// schedule and the metrics must satisfy basic sanity. The
// same holds for random sharded federations: every shard's schedule must
// validate and the merged schedule must hold every task exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "core/validator.hpp"
#include "offline/bounds.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

/// A scheduler that behaves randomly but legally: assigns a random pending
/// task (not just the front) to a random slave, sometimes defers, sometimes
/// waits a random while.
class ChaoticScheduler : public OnlineScheduler {
 public:
  explicit ChaoticScheduler(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "Chaotic"; }

  Decision decide(const EngineView& engine) override {
    const int roll = static_cast<int>(rng_.uniform_int(0, 9));
    // A plain Defer can legitimately deadlock on a quiet system, so the
    // chaotic policy only stalls via bounded WaitUntil requests.
    if (roll <= 1) {
      return WaitUntil{engine.now() + rng_.uniform(0.01, 0.5)};
    }
    // Assigning from an arbitrary position (not just the front) exercises
    // the engine's indexed pending-set erase. Only online slaves are legal
    // targets; with the whole fleet down, stall until something changes
    // (an up-transition is a wake-up).
    std::vector<SlaveId> online;
    for (SlaveId j = 0; j < engine.platform().size(); ++j) {
      if (engine.is_available(j)) online.push_back(j);
    }
    if (online.empty()) {
      return WaitUntil{engine.now() + rng_.uniform(0.01, 0.5)};
    }
    const std::vector<TaskId> pending = engine.pending_tasks();
    const std::size_t pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
    const SlaveId slave = online[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(online.size()) - 1))];
    return Assign{pending[pick], slave};
  }

 private:
  util::Rng rng_;
};

// Params below kChaoticSeeds run ChaoticScheduler; the rest cycle through
// these registry specs on the same kind of random scenario, so the planners
// and the meta policies also see mid-run inject_task calls, slowdowns and
// outages.
constexpr int kChaoticSeeds = 40;
const char* const kFuzzedSpecs[] = {
    "portfolio:LS;SRPT;rank:queue+horizon:4",
    "hedge:rank:ready;LS+window:8+hyst:2",
    "SLJFWC",
    "rank:plan:sljfwc:40",
    "SRPT",
    "RR"};

class EngineFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EngineFuzz, ChaoticRunsStayFeasible) {
  util::Rng rng(static_cast<std::uint64_t>(9000 + GetParam()));
  const platform::PlatformGenerator gen;
  const int m = static_cast<int>(rng.uniform_int(1, 6));
  const platform::Platform plat = gen.generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);

  EngineOptions options;
  options.port_capacity = static_cast<int>(rng.uniform_int(0, 3));
  if (rng.chance(0.5)) {
    options.slowdowns.push_back(SlowdownWindow{
        static_cast<SlaveId>(rng.uniform_int(0, m - 1)),
        rng.uniform(0.0, 5.0), rng.uniform(5.0, 30.0),
        rng.uniform(1.0, 4.0)});
  }
  // Half the runs get a time-varying platform: random outage/drift
  // profiles stress re-dispatch, piecewise compute and the offline-skip
  // contract, and the from-scratch validator must still accept the result.
  if (rng.chance(0.5)) {
    const platform::AvailabilityModel models[] = {
        platform::AvailabilityModel::kRareOutage,
        platform::AvailabilityModel::kChurn,
        platform::AvailabilityModel::kDrift};
    // Named locals: function-argument evaluation order is unspecified, and
    // a seed must reproduce the same scenario on every compiler.
    const platform::AvailabilityModel model = models[rng.uniform_int(0, 2)];
    const double mtbf = rng.uniform(1.0, 10.0);
    const double outage_frac = rng.uniform(0.05, 0.5);
    const double horizon = rng.uniform(10.0, 60.0);
    options.availability = platform::generate_availability(
        model, m, mtbf, outage_frac, horizon, rng);
  }

  // The chaotic seed is drawn on every param, so the rest of the stream
  // does not depend on which policy runs.
  const std::uint64_t chaotic_seed = rng.engine()();
  std::unique_ptr<OnlineScheduler> policy;
  if (GetParam() < kChaoticSeeds) {
    policy = std::make_unique<ChaoticScheduler>(chaotic_seed);
  } else {
    policy = algorithms::make_scheduler(kFuzzedSpecs[
        static_cast<std::size_t>(GetParam() - kChaoticSeeds) %
        std::size(kFuzzedSpecs)]);
  }
  OnePortEngine engine(plat, *policy, options);

  // Preload some tasks, then interleave probes and injections.
  const int preload = static_cast<int>(rng.uniform_int(1, 10));
  Workload initial = Workload::poisson(preload, 1.0, rng);
  if (rng.chance(0.5)) initial = initial.with_size_jitter(0.3, rng);
  engine.load(initial);

  Time probe = 0.0;
  const int injections = static_cast<int>(rng.uniform_int(0, 8));
  for (int k = 0; k < injections; ++k) {
    probe += rng.uniform(0.0, 3.0);
    engine.run_until(probe);
    TaskSpec spec;
    spec.release = engine.now() + rng.uniform(0.0, 2.0);
    spec.comm_factor = rng.uniform(0.5, 2.0);
    spec.comp_factor = rng.uniform(0.5, 2.0);
    engine.inject_task(spec);
  }
  engine.run_to_completion();

  // Rebuild the realized workload. Workload sorts by release while engine
  // ids are in injection order, so renumber the schedule records through
  // the same (stable) sort before validating.
  std::vector<std::pair<TaskSpec, TaskId>> tagged;
  for (TaskId i = 0; i < engine.total_tasks(); ++i) {
    tagged.emplace_back(engine.task_spec(i), i);
  }
  std::stable_sort(tagged.begin(), tagged.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.release < b.first.release;
                   });
  std::vector<TaskSpec> specs;
  std::vector<TaskId> new_id(tagged.size());
  for (std::size_t pos = 0; pos < tagged.size(); ++pos) {
    specs.push_back(tagged[pos].first);
    new_id[static_cast<std::size_t>(tagged[pos].second)] =
        static_cast<TaskId>(pos);
  }
  const Workload realized{std::move(specs)};
  Schedule renumbered;
  for (TaskRecord r : engine.schedule().records()) {
    r.task = new_id[static_cast<std::size_t>(r.task)];
    renumbered.add(r);
  }
  const std::vector<std::string> violations =
      validate(plat, realized, renumbered, options);
  EXPECT_TRUE(violations.empty())
      << "seed " << GetParam() << " (" << policy->name()
      << "): " << violations.front();

  // Sanity: the engine parked at the true completion instant, and every
  // objective dominates its closed-form lower bound on a pristine platform.
  // The bounds hold for one-port schedules only: with two ports RR on one
  // slave (param 69) legally finishes below the port-chain bound.
  EXPECT_NEAR(engine.now(),
              std::max(engine.schedule().makespan(), engine.now()), 1e-9);
  if (options.port_capacity == 1 && options.slowdowns.empty() &&
      options.availability.empty()) {
    const offline::LowerBounds lb = offline::lower_bounds(plat, realized);
    EXPECT_GE(engine.schedule().makespan(), lb.makespan - 1e-6);
    EXPECT_GE(engine.schedule().sum_flow(), lb.sum_flow - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EngineFuzz,
    ::testing::Range(0, kChaoticSeeds + 40 * static_cast<int>(
                                             std::size(kFuzzedSpecs))));

// ----- sharded federations ---------------------------------------------------
//
// Every (K, routing, churn) combination for K in {2, 3, 5}, twice over with
// different seeds: random platform class, size and workload (releases
// quantized half the time, so least-loaded epochs route several tasks off
// one load observation), random port capacity, slowdowns, policy and shard
// thread count.

class ShardedFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ShardedFuzz, RandomFederationsStayFeasible) {
  constexpr int kShardCounts[] = {2, 3, 5};
  constexpr ShardRouting kRoutings[] = {ShardRouting::kHash,
                                        ShardRouting::kRoundRobin,
                                        ShardRouting::kLeastLoaded};
  const int param = GetParam();
  const int shards = kShardCounts[param % 3];
  const ShardRouting routing = kRoutings[(param / 3) % 3];
  const bool churn = (param / 9) % 2 == 1;
  const std::string label = "param " + std::to_string(param) + " K=" +
                            std::to_string(shards) + " " +
                            to_string(routing) + (churn ? " churn" : "");

  util::Rng rng(static_cast<std::uint64_t>(31000 + param));
  const platform::PlatformClass classes[] = {
      platform::PlatformClass::kFullyHomogeneous,
      platform::PlatformClass::kCommHomogeneous,
      platform::PlatformClass::kCompHomogeneous,
      platform::PlatformClass::kFullyHeterogeneous};
  const platform::PlatformClass cls = classes[rng.uniform_int(0, 3)];
  const int m = shards * static_cast<int>(rng.uniform_int(1, 6));
  const platform::Platform plat =
      platform::PlatformGenerator().generate(cls, m, rng);

  const int n = static_cast<int>(rng.uniform_int(20, 150));
  const double rate = rng.uniform(0.5, 6.0);
  std::vector<TaskSpec> tasks = Workload::poisson(n, rate, rng).tasks();
  if (rng.chance(0.5)) {
    for (TaskSpec& t : tasks) t.release = std::floor(t.release);
  }
  Workload work{std::move(tasks)};
  if (rng.chance(0.5)) work = work.with_size_jitter(0.3, rng);

  ShardedEngineOptions options;
  options.shards = shards;
  options.routing = routing;
  options.shard_threads = static_cast<int>(rng.uniform_int(1, 3));
  options.engine.port_capacity = static_cast<int>(rng.uniform_int(0, 2));
  if (rng.chance(0.5)) {
    options.engine.slowdowns.push_back(SlowdownWindow{
        static_cast<SlaveId>(rng.uniform_int(0, m - 1)),
        rng.uniform(0.0, 5.0), rng.uniform(5.0, 30.0),
        rng.uniform(1.0, 4.0)});
  }
  if (churn) {
    const double mtbf = rng.uniform(2.0, 10.0);
    const double outage_frac = rng.uniform(0.05, 0.3);
    const double horizon = static_cast<double>(n) / rate + 20.0;
    options.engine.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, m, mtbf, outage_frac, horizon,
        rng);
  }
  // RR/RRC/RRP, SRPT and the other fixed-order compositions decide by
  // walking a cached slave order; the planners build their plan at a
  // shard's first decision; the meta policies forward-simulate their
  // members (portfolio) or switch between them (hedge). The sanitizer
  // build runs them all here. 13 policies against 36 params: each runs at
  // least twice, and (param % 3, param % 13) never repeats.
  const char* const policies[] = {
      "LS",
      "RR",
      "RRC",
      "RRP",
      "SRPT",
      "SLJF",
      "SLJFWC",
      "rank:plan:sljfwc:40",
      "MINREADY",
      "rank:comm+filter:free",
      "rank:cyclic:comp+filter:free",
      "portfolio:LS;SRPT;rank:queue+horizon:4",
      "hedge:rank:ready;LS+window:8+hyst:2"};
  const std::string policy =
      policies[static_cast<std::size_t>(param) % std::size(policies)];

  ShardedEngine engine(
      plat, [&] { return algorithms::make_scheduler(policy); }, options);
  engine.load(work);
  engine.run_to_completion();

  for (int k = 0; k < engine.num_shards(); ++k) {
    EXPECT_NO_THROW(validate_or_throw(
        engine.partition().shard_platform(k), engine.shard_workload(k),
        engine.shard_engine(k).schedule(), engine.shard_options(k)))
        << label << " (" << policy << ") shard " << k;
  }

  std::vector<int> seen(static_cast<std::size_t>(work.size()), 0);
  for (const TaskRecord& r : engine.schedule().records()) {
    ASSERT_GE(r.task, 0) << label;
    ASSERT_LT(r.task, work.size()) << label;
    ++seen[static_cast<std::size_t>(r.task)];
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << label << " (" << policy << ") task " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Combinations, ShardedFuzz, ::testing::Range(0, 36));

}  // namespace
}  // namespace msol::core
