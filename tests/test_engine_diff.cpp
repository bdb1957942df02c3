// Differential fuzz: the event-calendar OnePortEngine must be
// *bit-identical* to the frozen ReferenceEngine — same schedule records,
// same makespan, same trace event sequence — across randomized platforms,
// workloads (including the inhomogeneous-Poisson and heavy-tail mixes),
// every scheduler in the registry, port capacities and slowdown windows.
// 500+ cases run as sharded gtest params so a failure pinpoints its seed.
// Both engines probe through the same ranking kernel, so every calendar
// engine run is also audited against a scalar reference probe (ProbeAudit).
//
// Half of the calendar-engine runs go through a *reused* engine (reset()
// between cases) instead of a fresh one, so incomplete state clearing in
// reset() shows up as a cross-case divergence here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "oracles/reference_engine.hpp"
#include "oracles/reference_probes.hpp"
#include "platform/availability.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

constexpr int kShards = 25;
constexpr int kCasesPerShard = 20;  // 25 x 20 = 500 base cases

/// Legal-but-chaotic policy: random assignments from arbitrary pending
/// positions, plus bounded WaitUntil stalls. No registry scheduler ever
/// returns WaitUntil, so without this policy the calendar engine's
/// generation-stamped kSchedulerWake invalidation (wake_gen_) would sit
/// outside the differential proof entirely.
class ChaoticPolicy : public OnlineScheduler {
 public:
  explicit ChaoticPolicy(std::uint64_t seed) : rng_(seed) {}
  std::string name() const override { return "CHAOS"; }

  Decision decide(const EngineView& engine) override {
    const int roll = static_cast<int>(rng_.uniform_int(0, 9));
    if (roll <= 2) {
      // Strictly-future wake-ups only (a past request degrades to a plain
      // Defer, which can legitimately deadlock a quiet system); successive
      // requests supersede each other and assignments cancel them, driving
      // the calendar engine's generation-stamp pruning.
      return WaitUntil{engine.now() + rng_.uniform(0.01, 0.5)};
    }
    const std::vector<TaskId> pending = engine.pending_tasks();
    const std::size_t pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
    const SlaveId slave = static_cast<SlaveId>(
        rng_.uniform_int(0, engine.platform().size() - 1));
    return Assign{pending[pick], slave};
  }

 private:
  util::Rng rng_;
};

const std::vector<std::string>& fuzz_schedulers() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> all = algorithms::extended_algorithm_names();
    all.push_back("RLS");
    all.push_back("LS-K2");
    all.push_back("CHAOS");
    all.push_back("CHAOS");  // twice the rotation weight: it alone covers
                             // WaitUntil and non-front commits
    return all;
  }();
  return names;
}

std::unique_ptr<OnlineScheduler> make_policy(const std::string& name,
                                             int lookahead,
                                             std::uint64_t seed) {
  if (name == "CHAOS") return std::make_unique<ChaoticPolicy>(seed);
  return algorithms::make_scheduler(name, lookahead, seed);
}

struct Scenario {
  platform::Platform platform;
  Workload workload;
  EngineOptions options;
  std::string scheduler;
  int lookahead = 20;
};

Scenario make_scenario(std::uint64_t seed) {
  util::Rng rng(seed);
  const int m = static_cast<int>(rng.uniform_int(1, 8));
  const platform::PlatformClass classes[] = {
      platform::PlatformClass::kFullyHomogeneous,
      platform::PlatformClass::kCommHomogeneous,
      platform::PlatformClass::kCompHomogeneous,
      platform::PlatformClass::kFullyHeterogeneous};
  platform::Platform plat = platform::PlatformGenerator().generate(
      classes[rng.uniform_int(0, 3)], m, rng);

  const int n = static_cast<int>(rng.uniform_int(1, 60));
  Workload work = Workload::all_at_zero(n);
  switch (rng.uniform_int(0, 4)) {
    case 0: break;  // all at zero
    case 1: work = Workload::poisson(n, rng.uniform(0.5, 4.0), rng); break;
    case 2: work = Workload::uniform(n, rng.uniform(1.0, 20.0), rng); break;
    case 3:
      work = Workload::bursty(n, static_cast<int>(rng.uniform_int(1, 8)),
                              rng.uniform(0.5, 4.0), rng);
      break;
    case 4:
      work = Workload::inhomogeneous_poisson(n, rng.uniform(0.5, 4.0),
                                             rng.uniform(0.0, 1.0),
                                             rng.uniform(2.0, 20.0), rng);
      break;
  }
  switch (rng.uniform_int(0, 3)) {
    case 0: break;  // unit sizes
    case 1: work = work.with_size_jitter(0.3, rng); break;
    case 2: work = work.with_pareto_sizes(1.5, 20.0, rng); break;
    case 3: work = work.with_lognormal_noise(0.4, 0.4, rng); break;
  }

  EngineOptions options;
  options.enable_trace = true;
  options.port_capacity = static_cast<int>(rng.uniform_int(0, 3));
  const int windows = static_cast<int>(rng.uniform_int(0, 2));
  for (int w = 0; w < windows; ++w) {
    const Time begin = rng.uniform(0.0, 10.0);
    options.slowdowns.push_back(SlowdownWindow{
        static_cast<SlaveId>(rng.uniform_int(0, m - 1)), begin,
        begin + rng.uniform(0.5, 20.0), rng.uniform(1.0, 4.0)});
  }
  // A third of the cases carry trivial (all-empty) availability profiles:
  // "availability disabled" must mean *disabled* — same closed-form path,
  // bit-identical to the reference — not merely "no outages happen to
  // fire". Derived from the seed, not the rng, so the other draws above
  // stay exactly what they were before this option existed.
  if (seed % 3 == 0) {
    options.availability.assign(static_cast<std::size_t>(m),
                                platform::AvailabilityProfile{});
  }

  const auto& names = fuzz_schedulers();
  Scenario scenario{std::move(plat), std::move(work), std::move(options),
                    names[seed % names.size()],
                    static_cast<int>(rng.uniform_int(0, 40))};
  return scenario;
}

void expect_identical(const EngineView& actual, const EngineView& expected,
                      const std::string& label) {
  const Schedule& a = actual.schedule();
  const Schedule& e = expected.schedule();
  ASSERT_EQ(a.size(), e.size()) << label;
  for (int i = 0; i < a.size(); ++i) {
    const TaskRecord& ra = a.at(i);
    const TaskRecord& re = e.at(i);
    ASSERT_EQ(ra.task, re.task) << label << " record " << i;
    ASSERT_EQ(ra.slave, re.slave) << label << " record " << i;
    // Deliberately exact: both engines must execute the same arithmetic in
    // the same order, not merely land within an epsilon.
    ASSERT_EQ(ra.release, re.release) << label << " record " << i;
    ASSERT_EQ(ra.send_start, re.send_start) << label << " record " << i;
    ASSERT_EQ(ra.send_end, re.send_end) << label << " record " << i;
    ASSERT_EQ(ra.comp_start, re.comp_start) << label << " record " << i;
    ASSERT_EQ(ra.comp_end, re.comp_end) << label << " record " << i;
  }
  ASSERT_EQ(a.makespan(), e.makespan()) << label;
  ASSERT_EQ(actual.now(), expected.now()) << label;

  const auto& ta = actual.trace().events();
  const auto& te = expected.trace().events();
  ASSERT_EQ(ta.size(), te.size()) << label;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i].kind, te[i].kind) << label << " event " << i;
    ASSERT_EQ(ta[i].time, te[i].time) << label << " event " << i;
    ASSERT_EQ(ta[i].task, te[i].task) << label << " event " << i;
    ASSERT_EQ(ta[i].slave, te[i].slave) << label << " event " << i;
    ASSERT_EQ(ta[i].aux, te[i].aux) << label << " event " << i;
  }
}

// ----- probe audit ----------------------------------------------------------
//
// Every probe (completion_if_assigned and its batched forms) runs the
// ranking kernel over a view's dense arrays, on both engines: the
// differential below cannot see a kernel bug, since ReferenceEngine would
// share it. ProbeAudit wraps a policy and, at every decision, recomputes
// the batch probe and best_completion_slave for the pending front task
// with the tests' scalar reference probe (reference_probes) and a
// sequential argmin over it, eps tie-break included, and requires bitwise
// agreement. The base shards run it on every case, the fleet-scale shards
// at the end of this file on large platforms.

class ProbeAudit : public OnlineScheduler {
 public:
  explicit ProbeAudit(OnlineScheduler& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }
  void on_task_released(const EngineView& engine, TaskId task) override {
    inner_.on_task_released(engine, task);
  }

  Decision decide(const EngineView& engine) override {
    ++decisions_;
    if (mismatch_.empty()) audit(engine);
    return inner_.decide(engine);
  }

  long long decisions() const { return decisions_; }
  /// First disagreement found, or empty.
  const std::string& mismatch() const { return mismatch_; }

 private:
  void audit(const EngineView& engine) {
    const TaskId task = engine.pending_front();
    const TaskSpec& spec = engine.task_spec(task);
    const SlaveStateView s = engine.slave_state();
    const int m = s.m;
    const auto ms = static_cast<std::size_t>(m);
    ids_.resize(ms);
    batch_.resize(ms);
    for (SlaveId j = 0; j < m; ++j) ids_[static_cast<std::size_t>(j)] = j;
    const Time send_start =
        std::max({engine.now(), engine.port_free_at(), spec.release});
    scalar_ = reference_probes(s, engine.now(), send_start, spec.comm_factor,
                               spec.comp_factor, ids_);
    SlaveId best = -1;
    Time best_completion = 0.0;
    for (SlaveId j = 0; j < m; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (!s.is_online(j)) continue;
      if (best < 0 || scalar_[js] < best_completion - kTimeEps) {
        best = j;
        best_completion = scalar_[js];
      }
    }
    engine.completion_if_assigned_batch(task, ids_.data(), m, batch_.data());
    const std::string where = "decision " + std::to_string(decisions_) +
                              " (t=" + std::to_string(engine.now()) + ")";
    if (std::memcmp(batch_.data(), scalar_.data(), ms * sizeof(Time)) != 0) {
      mismatch_ = where + ": completion_if_assigned_batch differs";
      return;
    }
    const SlaveId kernel_best = engine.best_completion_slave(task);
    if (kernel_best != best) {
      mismatch_ = where + ": best_completion_slave " +
                  std::to_string(kernel_best) + ", scalar loop " +
                  std::to_string(best);
    }
  }

  OnlineScheduler& inner_;
  long long decisions_ = 0;
  std::string mismatch_;
  std::vector<SlaveId> ids_;
  std::vector<Time> scalar_;
  std::vector<Time> batch_;
};

class EngineDiff : public ::testing::TestWithParam<int> {};

TEST_P(EngineDiff, CalendarEngineMatchesReferenceBitExactly) {
  // A single reused engine across all of this shard's cases: a case with
  // fewer slaves/tasks than its predecessor would expose stale state.
  OnePortEngine reused;

  for (int c = 0; c < kCasesPerShard; ++c) {
    const std::uint64_t seed =
        1000003ULL * static_cast<std::uint64_t>(GetParam()) +
        static_cast<std::uint64_t>(c);
    const Scenario scenario = make_scenario(seed);
    const std::string label = "seed " + std::to_string(seed) + " (" +
                              scenario.scheduler + ")";

    // Two instances of the same policy with identical configuration: the
    // randomized ones (RANDOM, RLS) draw the same stream iff the engines
    // consult them at the same instants in the same order.
    const auto policy_a =
        make_policy(scenario.scheduler, scenario.lookahead, 99);
    const auto policy_e =
        make_policy(scenario.scheduler, scenario.lookahead, 99);

    ReferenceEngine expected(scenario.platform, *policy_e, scenario.options);
    expected.load(scenario.workload);
    expected.run_to_completion();

    ProbeAudit audited(*policy_a);
    if (c % 2 == 0) {
      reused.reset(scenario.platform, audited, scenario.options);
      reused.load(scenario.workload);
      reused.run_to_completion();
      expect_identical(reused, expected, label + " [reused]");
    } else {
      OnePortEngine fresh(scenario.platform, audited, scenario.options);
      fresh.load(scenario.workload);
      fresh.run_to_completion();
      expect_identical(fresh, expected, label + " [fresh]");
    }
    EXPECT_EQ(audited.mismatch(), "") << label;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, EngineDiff, ::testing::Range(0, kShards));

// ----- sharded engine at K=1 -----------------------------------------------
//
// ShardedEngine with a single shard must be byte-identical to the plain
// OnePortEngine on the same randomized scenarios the base shards use: the
// identity partition, the merge layer, and the option slicing must all be
// exact no-ops, under every routing (routing is moot at K=1 but its code
// path still runs at load time).

void expect_identical_merged(const ShardedEngine& actual,
                             const EngineView& expected,
                             const std::string& label) {
  const Schedule& a = actual.schedule();
  const Schedule& e = expected.schedule();
  ASSERT_EQ(a.size(), e.size()) << label;
  for (int i = 0; i < a.size(); ++i) {
    const TaskRecord& ra = a.at(i);
    const TaskRecord& re = e.at(i);
    ASSERT_EQ(ra.task, re.task) << label << " record " << i;
    ASSERT_EQ(ra.slave, re.slave) << label << " record " << i;
    ASSERT_EQ(ra.release, re.release) << label << " record " << i;
    ASSERT_EQ(ra.send_start, re.send_start) << label << " record " << i;
    ASSERT_EQ(ra.send_end, re.send_end) << label << " record " << i;
    ASSERT_EQ(ra.comp_start, re.comp_start) << label << " record " << i;
    ASSERT_EQ(ra.comp_end, re.comp_end) << label << " record " << i;
  }
  ASSERT_EQ(a.makespan(), e.makespan()) << label;

  const auto& ta = actual.trace().events();
  const auto& te = expected.trace().events();
  ASSERT_EQ(ta.size(), te.size()) << label;
  for (std::size_t i = 0; i < ta.size(); ++i) {
    ASSERT_EQ(ta[i].kind, te[i].kind) << label << " event " << i;
    ASSERT_EQ(ta[i].time, te[i].time) << label << " event " << i;
    ASSERT_EQ(ta[i].task, te[i].task) << label << " event " << i;
    ASSERT_EQ(ta[i].slave, te[i].slave) << label << " event " << i;
    ASSERT_EQ(ta[i].aux, te[i].aux) << label << " event " << i;
  }
}

class ShardedDiff : public ::testing::TestWithParam<int> {};

TEST_P(ShardedDiff, SingleShardMatchesOnePortEngineBitExactly) {
  constexpr ShardRouting kRoutings[] = {ShardRouting::kHash,
                                        ShardRouting::kRoundRobin,
                                        ShardRouting::kLeastLoaded};
  for (int c = 0; c < 10; ++c) {
    const std::uint64_t seed =
        555000ULL + 100ULL * static_cast<std::uint64_t>(GetParam()) +
        static_cast<std::uint64_t>(c);
    const Scenario scenario = make_scenario(seed);
    const std::string label = "sharded seed " + std::to_string(seed) + " (" +
                              scenario.scheduler + ")";

    const auto policy_e =
        make_policy(scenario.scheduler, scenario.lookahead, 99);
    OnePortEngine expected(scenario.platform, *policy_e, scenario.options);
    expected.load(scenario.workload);
    expected.run_to_completion();

    ShardedEngineOptions options;
    options.shards = 1;
    options.routing = kRoutings[seed % std::size(kRoutings)];
    options.engine = scenario.options;
    ShardedEngine actual(
        scenario.platform,
        [&] { return make_policy(scenario.scheduler, scenario.lookahead, 99); },
        std::move(options));
    actual.load(scenario.workload);
    actual.run_to_completion();
    expect_identical_merged(actual, expected, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedDiff, ::testing::Range(0, 5));

// ----- adversary probe discipline ------------------------------------------

class EngineDiffProbes : public ::testing::TestWithParam<int> {};

TEST_P(EngineDiffProbes, RunUntilAndInjectMatchReference) {
  for (int c = 0; c < 10; ++c) {
    const std::uint64_t seed =
        777000ULL + 100ULL * static_cast<std::uint64_t>(GetParam()) +
        static_cast<std::uint64_t>(c);
    const Scenario scenario = make_scenario(seed);
    const std::string label = "probe seed " + std::to_string(seed) + " (" +
                              scenario.scheduler + ")";
    const auto policy_a =
        make_policy(scenario.scheduler, scenario.lookahead, 7);
    const auto policy_e =
        make_policy(scenario.scheduler, scenario.lookahead, 7);

    OnePortEngine actual(scenario.platform, *policy_a, scenario.options);
    ReferenceEngine expected(scenario.platform, *policy_e, scenario.options);
    actual.load(scenario.workload);
    expected.load(scenario.workload);

    // Identical probe/injection script on both engines.
    util::Rng script(seed ^ 0xabcdef);
    Time probe = 0.0;
    const int steps = static_cast<int>(script.uniform_int(1, 6));
    for (int k = 0; k < steps; ++k) {
      probe += script.uniform(0.0, 3.0);
      actual.run_until(probe);
      expected.run_until(probe);
      ASSERT_EQ(actual.now(), expected.now()) << label;
      ASSERT_EQ(actual.pending_count(), expected.pending_count()) << label;
      ASSERT_EQ(actual.completed_or_committed(),
                expected.completed_or_committed())
          << label;
      TaskSpec spec;
      spec.release = probe + script.uniform(0.0, 2.0);
      spec.comm_factor = script.uniform(0.5, 2.0);
      spec.comp_factor = script.uniform(0.5, 2.0);
      ASSERT_EQ(actual.inject_task(spec), expected.inject_task(spec)) << label;
    }
    actual.run_to_completion();
    expected.run_to_completion();
    expect_identical(actual, expected, label);
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, EngineDiffProbes, ::testing::Range(0, 5));

// ----- probe audit at fleet scale ------------------------------------------
//
// ProbeAudit (above) at fleet sizes the 500-case suite never reaches (1k/4k
// slaves x 50k/100k tasks), where ReferenceEngine's O(pending) scans would
// dominate the suite's runtime: static platforms (one fully homogeneous, so
// exact ties exercise the tie-break), churn (offline slaves) and drift
// (per-slave speeds). ChaoticPolicy is excluded: its pending_tasks() copy is
// O(n^2) over a 100k backlog and its WaitUntil coverage is already carried
// by the base shards.
//
// Setting MSOL_DIFF_SCALE=small (sanitizer CI legs) shrinks every case
// ~16x/25x while keeping the same structure.

struct ScaleCase {
  const char* policy;
  int slaves;
  int tasks;
  platform::AvailabilityModel avail;
  platform::PlatformClass cls = platform::PlatformClass::kFullyHeterogeneous;
};

constexpr ScaleCase kScaleCases[] = {
    {"RR", 1024, 50000, platform::AvailabilityModel::kAlways},
    {"LS", 1024, 50000, platform::AvailabilityModel::kChurn},
    {"SRPT", 1024, 50000, platform::AvailabilityModel::kAlways},
    {"RR", 4096, 100000, platform::AvailabilityModel::kChurn},
    {"LS", 4096, 100000, platform::AvailabilityModel::kAlways},
    {"LS", 1024, 50000, platform::AvailabilityModel::kDrift},
    {"SRPT", 1024, 50000, platform::AvailabilityModel::kDrift},
    {"LS", 1024, 50000, platform::AvailabilityModel::kAlways,
     platform::PlatformClass::kFullyHomogeneous},
};

class EngineDiffScale : public ::testing::TestWithParam<int> {};

TEST_P(EngineDiffScale, BatchedProbesMatchScalarLoopAtFleetScale) {
  ScaleCase c = kScaleCases[GetParam()];
  const char* scale_env = std::getenv("MSOL_DIFF_SCALE");
  if (scale_env != nullptr && std::string(scale_env) == "small") {
    c.slaves /= 16;
    c.tasks /= 25;
  }
  const std::string label = std::string(c.policy) + " m=" +
                            std::to_string(c.slaves) + " n=" +
                            std::to_string(c.tasks) + " " +
                            platform::to_string(c.avail);

  const std::uint64_t seed = 424200ULL + static_cast<std::uint64_t>(GetParam());
  util::Rng rng(seed);
  const platform::Platform plat =
      platform::PlatformGenerator().generate(c.cls, c.slaves, rng);

  // Bursty arrivals cluster timestamps (many tied and near-tied event
  // instants) at 90% of one-port capacity.
  const double rate = 0.9 * experiments::max_throughput(plat);
  const Workload work =
      Workload::bursty(c.tasks, c.tasks / 64 + 1, 1.0 / rate, rng);

  EngineOptions options;
  const Time horizon = 1.5 * static_cast<Time>(c.tasks) / rate;
  if (c.avail == platform::AvailabilityModel::kChurn) {
    options.availability = platform::generate_availability(
        c.avail, c.slaves, horizon / 4.0, 0.1, horizon, rng);
  } else if (c.avail == platform::AvailabilityModel::kDrift) {
    options.availability = platform::generate_availability(
        c.avail, c.slaves, horizon / 8.0, 0.0, horizon, rng);
  }

  const auto policy = algorithms::make_scheduler(c.policy);
  ProbeAudit audited(*policy);
  OnePortEngine engine(plat, audited, options);
  engine.load(work);
  engine.run_to_completion();
  EXPECT_GT(audited.decisions(), 0) << label;
  EXPECT_EQ(audited.mismatch(), "") << label;
  validate_or_throw(plat, work, engine.schedule(), options);
}

INSTANTIATE_TEST_SUITE_P(
    Scale, EngineDiffScale,
    ::testing::Range(0, static_cast<int>(std::size(kScaleCases))));

}  // namespace
}  // namespace msol::core
