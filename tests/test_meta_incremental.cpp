// Differential shard for the incremental projection engine: the
// delta-driven evaluation a portfolio runs on a OnePortEngine (persistent
// IncrementalProjection) must be *byte-identical* end-to-end to
// RebuildPortfolio, the test-only oracle that evaluates the same rule on a
// fresh EngineProjection per member and decision — same schedule records
// bit for bit, same disruption counters — across regimes {static poisson,
// bursty, availability churn} x seeds x {2-member, 4-member, tie:rng-member
// portfolios}. Plus a hedge determinism check, white-box checks of the
// resync/rebuild accounting, reset-reuse, and the thread-count
// byte-identity of grids with rng-tied portfolio members.
//
// MSOL_DIFF_SCALE=small (sanitizer CI legs) shrinks the workloads while
// keeping every case's structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/meta/meta_spec.hpp"
#include "algorithms/meta/projection.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "oracles/engine_projection.hpp"
#include "oracles/rebuild_portfolio.hpp"
#include "platform/availability.hpp"
#include "platform/generator.hpp"
#include "runner/parallel_runner.hpp"
#include "runner/result_sink.hpp"
#include "runner/scenario.hpp"
#include "util/rng.hpp"

namespace msol::algorithms::meta {
namespace {

using core::Workload;
using platform::Platform;

bool small_scale() {
  const char* env = std::getenv("MSOL_DIFF_SCALE");
  return env != nullptr && std::string(env) == "small";
}

/// Task-count knob per MSOL_DIFF_SCALE (the cases here are already small
/// enough that only the workload length needs shrinking under sanitizers).
int scaled_tasks(int n) {
  if (!small_scale()) return n;
  const int shrunk = n / 5;
  return shrunk < 30 ? 30 : shrunk;
}

/// Bitwise double equality — the byte-identity contract, not an epsilon.
::testing::AssertionResult bits_equal(double a, double b) {
  std::uint64_t ba = 0;
  std::uint64_t bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (bits " << ba << " vs " << bb << ")";
}

void expect_schedules_identical(const core::Schedule& a,
                                const core::Schedule& b,
                                const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (int i = 0; i < a.size(); ++i) {
    const core::TaskRecord& ra = a.at(i);
    const core::TaskRecord& rb = b.at(i);
    EXPECT_EQ(ra.task, rb.task) << label << " record " << i;
    EXPECT_EQ(ra.slave, rb.slave) << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.release, rb.release)) << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.send_start, rb.send_start))
        << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.send_end, rb.send_end))
        << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.comp_start, rb.comp_start))
        << label << " record " << i;
    EXPECT_TRUE(bits_equal(ra.comp_end, rb.comp_end))
        << label << " record " << i;
  }
}

// ------------------------------------------------- incremental vs rebuild ----

enum class DiffRegime { kStatic, kBursty, kChurn };

struct DiffCase {
  const char* spec;
  DiffRegime regime;
  int slaves;
  int tasks;
};

/// Spec coverage: the smallest portfolio, a 4-member portfolio (widest
/// reseed rotation) and a portfolio with an rng-tied member (its stream
/// position is part of the evaluation). Regimes: static poisson
/// (resync-only steady state), bursty (clustered releases, deep pending
/// mirror), churn (replayed kDisrupt outages and offline-slave
/// projections).
constexpr DiffCase kDiffCases[] = {
    {"portfolio:LS;rank:queue+horizon:4", DiffRegime::kStatic, 6, 150},
    {"portfolio:LS;rank:queue+horizon:4", DiffRegime::kBursty, 6, 150},
    {"portfolio:LS;rank:queue+horizon:4", DiffRegime::kChurn, 6, 150},
    {"portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6", DiffRegime::kStatic,
     8, 120},
    {"portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6", DiffRegime::kBursty,
     8, 120},
    {"portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6", DiffRegime::kChurn,
     8, 120},
    {"portfolio:LS;rank:completion+eps:0.1+tie:rng+horizon:4",
     DiffRegime::kStatic, 6, 120},
    {"portfolio:LS;rank:completion+eps:0.1+tie:rng+horizon:4",
     DiffRegime::kBursty, 6, 120},
    {"portfolio:LS;rank:completion+eps:0.1+tie:rng+horizon:4",
     DiffRegime::kChurn, 6, 120},
};

constexpr std::uint64_t kDiffSeeds[] = {71, 902};

struct DiffRun {
  core::Schedule schedule;
  core::DisruptionStats disruption;
  /// Whether the policy was a portfolio holding an IncrementalProjection
  /// after the run.
  bool had_projection = false;
};

DiffRun run_case(const DiffCase& c, std::uint64_t seed, bool rebuild) {
  util::Rng rng(seed);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, c.slaves, rng);
  const int tasks = scaled_tasks(c.tasks);
  const double rate = 0.9 * experiments::max_throughput(plat);

  util::Rng work_rng(util::Rng(seed).child_seed(1));
  const Workload work =
      c.regime == DiffRegime::kBursty
          ? Workload::bursty(tasks, tasks / 10 + 1, 1.0 / rate, work_rng)
          : Workload::poisson(tasks, rate, work_rng);

  core::EngineOptions options;
  if (c.regime == DiffRegime::kChurn) {
    const core::Time horizon = 1.5 * static_cast<core::Time>(tasks) / rate;
    util::Rng avail_rng(util::Rng(seed).child_seed(2));
    options.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, c.slaves, horizon / 6.0, 0.25,
        horizon, avail_rng);
  }

  const MetaSpec spec = parse_meta_spec(c.spec);
  const std::unique_ptr<core::OnlineScheduler> policy =
      rebuild ? std::make_unique<RebuildPortfolio>(spec)
              : make_meta_policy(spec);
  DiffRun out;
  out.schedule = core::simulate(plat, work, *policy, options, &out.disruption);
  const auto* portfolio = dynamic_cast<const PortfolioPolicy*>(policy.get());
  out.had_projection =
      portfolio != nullptr && portfolio->projection() != nullptr;
  return out;
}

class MetaIncrementalDiff : public ::testing::TestWithParam<int> {};

TEST_P(MetaIncrementalDiff, DecisionsMatchRebuildBaselineByteForByte) {
  const DiffCase& c =
      kDiffCases[static_cast<std::size_t>(GetParam()) / std::size(kDiffSeeds)];
  const std::uint64_t seed =
      kDiffSeeds[static_cast<std::size_t>(GetParam()) % std::size(kDiffSeeds)];
  const std::string label =
      std::string(c.spec) + " seed=" + std::to_string(seed) + " regime=" +
      std::to_string(static_cast<int>(c.regime));

  const DiffRun incremental = run_case(c, seed, /*rebuild=*/false);
  const DiffRun baseline = run_case(c, seed, /*rebuild=*/true);
  // Each side really took its own path: otherwise this would compare the
  // incremental path with itself.
  EXPECT_TRUE(incremental.had_projection) << label;
  EXPECT_FALSE(baseline.had_projection) << label;
  expect_schedules_identical(incremental.schedule, baseline.schedule, label);
  EXPECT_EQ(incremental.disruption.redispatches, baseline.disruption.redispatches)
      << label;
  EXPECT_EQ(incremental.disruption.disruptive_outages,
            baseline.disruption.disruptive_outages)
      << label;
  EXPECT_TRUE(bits_equal(incremental.disruption.lost_work,
                         baseline.disruption.lost_work))
      << label;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, MetaIncrementalDiff,
    ::testing::Range(0, static_cast<int>(std::size(kDiffCases) *
                                         std::size(kDiffSeeds))));

// A hedge has no projection, so there is no rebuild baseline to compare it
// with. What is left to pin is determinism: a second instance on a second
// engine reproduces the first run bit for bit (a hedge run depends on
// nothing but its spec and the engine), under bursts and under churn.
TEST(HedgePolicy, SecondInstanceReproducesTheRunUnderBurstsAndChurn) {
  for (const DiffRegime regime : {DiffRegime::kBursty, DiffRegime::kChurn}) {
    for (const std::uint64_t seed : kDiffSeeds) {
      const DiffCase c{"hedge:LS;rank:queue+window:8+hyst:2", regime, 6, 150};
      const std::string label = "hedge seed=" + std::to_string(seed) +
                                " regime=" +
                                std::to_string(static_cast<int>(regime));
      const DiffRun first = run_case(c, seed, /*rebuild=*/false);
      const DiffRun second = run_case(c, seed, /*rebuild=*/false);
      EXPECT_FALSE(first.had_projection) << label;
      expect_schedules_identical(first.schedule, second.schedule, label);
      EXPECT_EQ(first.disruption.redispatches, second.disruption.redispatches)
          << label;
      EXPECT_TRUE(bits_equal(first.disruption.lost_work,
                             second.disruption.lost_work))
          << label;
    }
  }
}

// ------------------------------------------------------- resync accounting ----

/// Runs a portfolio policy on a directly-owned engine (simulate() would
/// reset() the policy on entry, which deliberately drops the projection —
/// the white-box counters need the instance to survive the run).
struct DirectRun {
  std::unique_ptr<PortfolioPolicy> policy;
  core::Schedule schedule;
  core::DisruptionStats disruption;
};

DirectRun run_direct(const std::string& spec, bool churn, std::uint64_t seed) {
  util::Rng rng(seed);
  const int m = 5;
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, m, rng);
  const int tasks = scaled_tasks(120);
  const double rate = 0.9 * experiments::max_throughput(plat);
  util::Rng work_rng(util::Rng(seed).child_seed(1));
  const Workload work = Workload::poisson(tasks, rate, work_rng);

  core::EngineOptions options;
  if (churn) {
    const core::Time horizon = 1.5 * static_cast<core::Time>(tasks) / rate;
    util::Rng avail_rng(util::Rng(seed).child_seed(2));
    options.availability = platform::generate_availability(
        platform::AvailabilityModel::kChurn, m, horizon / 6.0, 0.25, horizon,
        avail_rng);
  }

  DirectRun out;
  out.policy = std::make_unique<PortfolioPolicy>(parse_meta_spec(spec));
  core::OnePortEngine engine(plat, *out.policy, options);
  engine.load(work);
  engine.run_to_completion();
  out.schedule = engine.schedule();
  out.disruption = engine.disruption();
  return out;
}

TEST(IncrementalProjection, StaticRunRebuildsOnceAndResyncsTheRest) {
  const DirectRun run =
      run_direct("portfolio:LS;rank:queue+horizon:4", /*churn=*/false, 17);
  const PortfolioPolicy& policy = *run.policy;
  ASSERT_NE(policy.projection(), nullptr);
  EXPECT_GT(policy.decisions(), 0);
  // One sync per decision, each either a rebuild or a resync.
  EXPECT_EQ(policy.projection()->rebuilds() + policy.projection()->resyncs(),
            policy.decisions());
  // No disruptive events in a static run: only the priming rebuild.
  EXPECT_EQ(policy.projection()->rebuilds(), 1);
  EXPECT_GT(policy.projection()->resyncs(), 0);
}

TEST(IncrementalProjection, ChurnReplaysOutagesWithoutRebuilding) {
  const DirectRun run =
      run_direct("portfolio:LS;rank:queue+horizon:4", /*churn=*/true, 23);
  const PortfolioPolicy& policy = *run.policy;
  ASSERT_NE(policy.projection(), nullptr);
  // The run really re-dispatched work: outages hit committed tasks.
  EXPECT_GT(run.disruption.redispatches, 0);
  // kDisrupt replays like any other delta, so the priming rebuild is the
  // only one and every later decision resyncs.
  EXPECT_EQ(policy.projection()->rebuilds(), 1);
  EXPECT_EQ(policy.projection()->resyncs(), policy.decisions() - 1);
}

/// Whether delta events [from, to) hold an outage (kDisrupt), a task it
/// re-queued (a kPendingPush after it) and another slave's recovery.
bool window_holds_outage_and_recovery(const core::OnePortEngine& live,
                                      std::uint64_t from, std::uint64_t to) {
  core::SlaveId down = -1;
  bool requeued = false;
  std::vector<core::SlaveId> up;
  for (std::uint64_t seq = from; seq < to; ++seq) {
    const core::DeltaEvent& event = live.delta_event(seq);
    if (event.kind == core::DeltaKind::kDisrupt) down = event.slave;
    if (event.kind == core::DeltaKind::kPendingPush && down >= 0) {
      requeued = true;
    }
    if (event.kind == core::DeltaKind::kSlaveUp) up.push_back(event.slave);
  }
  return down >= 0 && requeued &&
         std::any_of(up.begin(), up.end(),
                     [down](core::SlaveId j) { return j != down; });
}

void expect_outcomes_identical(const ProjectionOutcome& a,
                               const ProjectionOutcome& b,
                               const std::string& label) {
  ASSERT_EQ(a.first.index(), b.first.index()) << label;
  if (const auto* assign = std::get_if<core::Assign>(&a.first)) {
    EXPECT_EQ(assign->task, std::get<core::Assign>(b.first).task) << label;
    EXPECT_EQ(assign->slave, std::get<core::Assign>(b.first).slave) << label;
  }
  if (const auto* wait = std::get_if<core::WaitUntil>(&a.first)) {
    EXPECT_TRUE(bits_equal(wait->time, std::get<core::WaitUntil>(b.first).time))
        << label;
  }
  EXPECT_EQ(a.commits, b.commits) << label;
  EXPECT_TRUE(bits_equal(a.makespan, b.makespan)) << label;
  EXPECT_EQ(a.stalled, b.stalled) << label;
}

/// Hands decide() to a portfolio on the live engine unchanged, and keeps
/// its own IncrementalProjection synced at every decision. At each decision
/// whose delta window holds an outage, its re-queues and another slave's
/// recovery, the replayed mirror's online flags and effective p_j (what the
/// kernel reads) and every member run on it must match a fresh
/// EngineProjection of the engine, bit for bit.
class OutageWindowProbe final : public core::OnlineScheduler {
 public:
  explicit OutageWindowProbe(const std::string& spec)
      : spec_(parse_meta_spec(spec)), inner_(spec_) {}

  std::string name() const override { return inner_.name(); }
  core::Decision decide(const core::EngineView& engine) override {
    const auto& live = dynamic_cast<const core::OnePortEngine&>(engine);
    if (!mirror_) mirror_ = std::make_unique<IncrementalProjection>(live);
    const bool window =
        primed_ &&
        window_holds_outage_and_recovery(live, cursor_, live.delta_end());
    mirror_->sync();
    cursor_ = live.delta_end();
    primed_ = true;
    if (window) {
      ++windows_;
      const EngineProjection snapshot(live);
      const core::SlaveStateView mine = mirror_->slave_state();
      const core::SlaveStateView fresh = snapshot.slave_state();
      EXPECT_EQ(mine.m, fresh.m);
      for (core::SlaveId j = 0; j < std::min(mine.m, fresh.m); ++j) {
        EXPECT_EQ(mine.is_online(j), fresh.is_online(j)) << j;
        EXPECT_TRUE(bits_equal(mine.comp[j], fresh.comp[j])) << j;
      }
      const int horizon = std::min(spec_.horizon, live.pending_count());
      for (const PolicySpec& member : spec_.members) {
        ComposedPolicy replayed(member);
        ComposedPolicy fresh(member);
        expect_outcomes_identical(
            mirror_->run(replayed, horizon),
            EngineProjection(live).run(fresh, horizon),
            to_string(member) + " at t=" + std::to_string(live.now()));
      }
    }
    return inner_.decide(engine);
  }
  void reset() override { inner_.reset(); }

  const PortfolioPolicy& portfolio() const { return inner_; }
  const IncrementalProjection& mirror() const { return *mirror_; }
  int windows() const { return windows_; }

 private:
  MetaSpec spec_;
  PortfolioPolicy inner_;
  std::unique_ptr<IncrementalProjection> mirror_;
  std::uint64_t cursor_ = 0;
  bool primed_ = false;
  int windows_ = 0;
};

TEST(IncrementalProjection, OutageRequeuesAndRecoveryReplayInOneWindow) {
  // Slave 0 (fast) holds committed work when it fails at t=1.5, the moment
  // slave 1 first comes online: the next decision's window holds the
  // kDisrupt, its kPendingPush re-queues and slave 1's kSlaveUp.
  const Platform plat({platform::SlaveSpec{0.1, 1.0},
                       platform::SlaveSpec{0.1, 1.0},
                       platform::SlaveSpec{0.1, 3.0}});
  std::vector<platform::AvailabilityProfile> profiles(3);
  profiles[0] =
      platform::AvailabilityProfile({{1.5, false, 1.0}, {50.0, true, 1.0}});
  profiles[1] =
      platform::AvailabilityProfile({{0.0, false, 1.0}, {1.5, true, 0.8}});
  core::EngineOptions options;
  options.availability = profiles;
  const Workload work = Workload::all_at_zero(8);
  const std::string spec = "portfolio:LS;SRPT;rank:queue+horizon:6";

  OutageWindowProbe probe(spec);
  core::OnePortEngine engine(plat, probe, options);
  engine.load(work);
  engine.run_to_completion();
  EXPECT_GT(engine.disruption().redispatches, 0);
  EXPECT_GE(probe.windows(), 1);
  EXPECT_EQ(probe.mirror().rebuilds(), 1);
  EXPECT_EQ(probe.portfolio().projection()->rebuilds(), 1);
  EXPECT_TRUE(core::validate(plat, work, engine.schedule(), options).empty());

  // End to end, the portfolio on the live engine (replaying the window)
  // matches the fresh-snapshot oracle.
  RebuildPortfolio baseline(parse_meta_spec(spec));
  core::OnePortEngine reference(plat, baseline, options);
  reference.load(work);
  reference.run_to_completion();
  expect_schedules_identical(engine.schedule(), reference.schedule(),
                             "outage window");
  EXPECT_EQ(engine.disruption().redispatches,
            reference.disruption().redispatches);
}

/// Commits the pending front to slave 0 and records slave 0's queue depth
/// as the view reports it at each decision.
class QueueRecorder final : public core::OnlineScheduler {
 public:
  std::string name() const override { return "queue-recorder"; }
  core::Decision decide(const core::EngineView& view) override {
    seen.push_back(view.tasks_in_system(0));
    return core::Assign{view.pending_front(), 0};
  }
  std::vector<int> seen;
};

TEST(IncrementalProjection, QueueDepthDrainsAtTheBaseReadyTimeNotTheProjectedOne) {
  // Live: six tasks at t=0, all sent to slave 0 (c=1, p=2); at t=2 two are
  // in its system (comp ends 3 and 5). The projection commits three more to
  // slave 0 (comp ends 7, 9, 11). At t=5 the live tasks have drained: the
  // depth is the 3 projected tasks, although slave 0's projected ready
  // (11) is still ahead.
  const Platform plat({platform::SlaveSpec{1.0, 2.0},
                       platform::SlaveSpec{1.0, 100.0}});
  QueueRecorder live_policy;
  core::OnePortEngine engine(plat, live_policy);
  engine.load(Workload::all_at_zero(6));
  engine.run_until(2.0);
  ASSERT_EQ(engine.pending_count(), 4);

  IncrementalProjection mirror(engine);
  mirror.sync();
  QueueRecorder replayed;
  mirror.run(replayed, 4);
  QueueRecorder fresh;
  EngineProjection(engine).run(fresh, 4);
  EXPECT_EQ(replayed.seen, (std::vector<int>{2, 3, 4, 3}));
  EXPECT_EQ(replayed.seen, fresh.seen);
}

TEST(IncrementalProjection, RebuildScalesEachOnlineSlaveByItsCurrentSpeed) {
  // The first sync rebuilds the mirror from the live engine's dense state
  // at t=0, where slaves 0 and 1 run at speeds 0.5 and 1.25 and slave 2 is
  // offline: each effective p_j must be the fresh snapshot's bit for bit,
  // and LS, which ranks on it, must project the same decisions.
  const Platform plat({platform::SlaveSpec{0.1, 1.0},
                       platform::SlaveSpec{0.2, 3.0},
                       platform::SlaveSpec{0.1, 0.5}});
  std::vector<platform::AvailabilityProfile> profiles(3);
  profiles[0] = platform::AvailabilityProfile({{0.0, true, 0.5}});
  profiles[1] = platform::AvailabilityProfile({{0.0, true, 1.25}});
  profiles[2] =
      platform::AvailabilityProfile({{0.0, false, 1.0}, {50.0, true, 1.0}});
  core::EngineOptions options;
  options.availability = profiles;
  QueueRecorder live_policy;  // never consulted: no decision precedes t=0
  core::OnePortEngine engine(plat, live_policy, options);
  engine.load(Workload::all_at_zero(6));
  engine.run_until(0.0);

  IncrementalProjection mirror(engine);
  mirror.sync();
  EXPECT_EQ(mirror.rebuilds(), 1);
  const EngineProjection snapshot(engine);
  const core::SlaveStateView mine = mirror.slave_state();
  const core::SlaveStateView fresh = snapshot.slave_state();
  for (core::SlaveId j = 0; j < plat.size(); ++j) {
    EXPECT_EQ(mine.is_online(j), fresh.is_online(j)) << j;
    EXPECT_TRUE(bits_equal(mine.comp[j], fresh.comp[j])) << j;
  }
  EXPECT_TRUE(bits_equal(mine.comp[0], 2.0));

  const PolicySpec ls = parse_policy_spec("LS");
  ComposedPolicy replayed(ls);
  ComposedPolicy fresh_ls(ls);
  expect_outcomes_identical(mirror.run(replayed, 6),
                            EngineProjection(engine).run(fresh_ls, 6), "LS");
}

// ------------------------------------------------------------ reset reuse ----

TEST(PortfolioPolicy, ReusedInstanceReproducesAFreshInstanceRun) {
  util::Rng rng(57);
  const Platform plat = platform::PlatformGenerator().generate(
      platform::PlatformClass::kFullyHeterogeneous, 5, rng);
  util::Rng work_rng(3);
  const Workload work =
      Workload::bursty(scaled_tasks(100), 10, 2.0, work_rng);

  const auto reused =
      make_meta_policy(parse_meta_spec("portfolio:LS;SRPT;rank:queue+horizon:4"));
  const core::Schedule first = core::simulate(plat, work, *reused);
  // Second run through the same instance: reset() must drop the projection
  // so the replay is exact (a stale mirror would diverge).
  const core::Schedule again = core::simulate(plat, work, *reused);
  expect_schedules_identical(first, again, "reused instance");
  EXPECT_TRUE(core::validate(plat, work, first).empty());

  const auto fresh =
      make_meta_policy(parse_meta_spec("portfolio:LS;SRPT;rank:queue+horizon:4"));
  expect_schedules_identical(first, core::simulate(plat, work, *fresh),
                             "fresh instance");
}

// ----------------------------------------------- thread-count byte-identity ----

std::string run_grid_to_csv(const runner::ScenarioGrid& grid, int threads) {
  std::ostringstream out;
  runner::CsvSink csv(out);
  runner::RunnerOptions options;
  options.threads = threads;
  runner::ParallelRunner runner(options);
  runner.run(grid, {&csv});
  return out.str();
}

/// Bursty + churny cells with an rng-tied portfolio member and a hedge.
/// This is the regression for the "member RNG streams restart from counter
/// 0 after a hedge switch" report: hedge members are constructed once and
/// frozen while benched — their tie streams and cursors *continue* across
/// switches, they are never re-derived — and portfolio member streams are
/// counter-derived per (member index, decision ordinal), never from the
/// engine's thread. Either defect would break the 1-vs-4-thread equality
/// below in the switch-heavy cells this grid forces (asserted non-trivial
/// via the switches metric).
runner::ScenarioGrid incremental_meta_grid() {
  runner::ScenarioGrid grid;
  grid.name = "meta-incremental";
  grid.seed = 47;
  grid.num_platforms = 2;
  grid.num_tasks = 40;
  grid.lookahead = 40;
  grid.algorithms = {
      "portfolio:LS;rank:completion+eps:0.1+tie:rng+horizon:4",
      "portfolio:LS;SRPT;rank:queue;rank:ready+horizon:6",
      "hedge:LS;rank:queue+window:8+hyst:2",
  };
  grid.classes = {platform::PlatformClass::kFullyHeterogeneous};
  grid.slave_counts = {3};
  grid.arrivals = {experiments::ArrivalProcess::kPoisson,
                   experiments::ArrivalProcess::kBursty};
  grid.loads = {0.9};
  grid.jitters = {0.0};
  grid.port_capacities = {1};
  grid.avails = {platform::AvailabilityModel::kAlways,
                 platform::AvailabilityModel::kChurn};
  grid.mtbf_tasks = {12.0};
  grid.outage_fracs = {0.3};
  return grid;
}

TEST(ParallelRunner, IncrementalMetaGridBitIdenticalAcrossThreadCounts) {
  const runner::ScenarioGrid grid = incremental_meta_grid();
  const std::string one = run_grid_to_csv(grid, 1);
  const std::string four = run_grid_to_csv(grid, 4);
  EXPECT_EQ(one, four);
  EXPECT_FALSE(one.empty());

  // The meta policies must actually switch members somewhere in the grid —
  // otherwise the stream-continuation regression above is vacuous.
  runner::MemorySink memory;
  runner::ParallelRunner runner;
  runner.run(grid, {&memory});
  double switches = 0.0;
  for (const runner::ResultRecord& record : memory.records()) {
    switches += record.result.switches.mean;
  }
  EXPECT_GT(switches, 0.0);
}

}  // namespace
}  // namespace msol::algorithms::meta
