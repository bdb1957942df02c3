// Golden-trace regression: fixed-seed (platform, workload, scheduler)
// triples whose full schedule AND decision trace are serialized byte-exact
// under tests/golden/. Any engine change that shifts semantics — even by one
// ulp or one reordered decision — fails here before it can silently skew
// every downstream campaign number.
//
// Regenerating (only after an *intentional* semantic change, reviewed as
// such): MSOL_REGEN_GOLDEN=1 ./build/test_golden_traces
// The files are written back into the source tree (MSOL_GOLDEN_DIR).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/meta/meta_spec.hpp"
#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/schedule_io.hpp"
#include "core/sharded_engine.hpp"
#include "oracles/rebuild_portfolio.hpp"
#include "oracles/reference_engine.hpp"
#include "platform/availability.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

struct GoldenCase {
  std::string name;
  platform::PlatformClass cls;
  int slaves;
  std::uint64_t platform_seed;
  std::string workload;  ///< all-at-zero | poisson | bursty | uniform |
                         ///< inhomogeneous | pareto
  int tasks;
  std::uint64_t workload_seed;
  std::string scheduler;
  int lookahead = 20;
  int port_capacity = 1;
  bool slowdown = false;
  /// Availability fixture: "" = static platform; "outage" | "drift" |
  /// "churn-mixed" select the hand-written profiles in make_options. The
  /// frozen ReferenceEngine cannot replay these, so the engine cross-check
  /// is skipped and the golden file alone pins the semantics.
  std::string avail = "";
  /// > 1 runs the triple through a ShardedEngine with least-loaded routing:
  /// these fixtures are the router's oracle (which shard each epoch's tasks
  /// land on is visible in every merged record's slave id).
  int shards = 1;
};

const std::vector<GoldenCase>& golden_cases() {
  using platform::PlatformClass;
  static const std::vector<GoldenCase> cases = {
      {"srpt_poisson_het", PlatformClass::kFullyHeterogeneous, 4, 11,
       "poisson", 30, 101, "SRPT"},
      {"ls_allzero_hom", PlatformClass::kFullyHomogeneous, 3, 12,
       "all-at-zero", 25, 102, "LS"},
      {"rr_bursty_commhom", PlatformClass::kCommHomogeneous, 5, 13, "bursty",
       40, 103, "RR"},
      {"rrc_uniform_comphom", PlatformClass::kCompHomogeneous, 4, 14,
       "uniform", 30, 104, "RRC"},
      {"rrp_poisson_het", PlatformClass::kFullyHeterogeneous, 6, 15, "poisson",
       35, 105, "RRP"},
      {"sljf_allzero_commhom", PlatformClass::kCommHomogeneous, 5, 16,
       "all-at-zero", 40, 106, "SLJF"},
      {"sljfwc_poisson_comphom", PlatformClass::kCompHomogeneous, 4, 17,
       "poisson", 30, 107, "SLJFWC"},
      {"wrr_inhomogeneous_het", PlatformClass::kFullyHeterogeneous, 5, 18,
       "inhomogeneous", 40, 108, "WRR"},
      {"minready_pareto_het", PlatformClass::kFullyHeterogeneous, 3, 19,
       "pareto", 30, 109, "MINREADY"},
      {"lsk3_slowdown_port2", PlatformClass::kFullyHeterogeneous, 4, 20,
       "poisson", 30, 110, "LS-K3", 20, 2, true},
      // Time-varying availability fixtures (PR 4): outage re-dispatch,
      // speed drift, and both at once, across different policies.
      {"ls_outage_redispatch", PlatformClass::kFullyHeterogeneous, 4, 21,
       "poisson", 30, 111, "LS", 20, 1, false, "outage"},
      {"srpt_churn_mixed", PlatformClass::kFullyHeterogeneous, 3, 22,
       "poisson", 35, 112, "SRPT", 20, 1, false, "churn-mixed"},
      {"rr_drift", PlatformClass::kCommHomogeneous, 4, 23, "bursty", 40, 113,
       "RR", 20, 1, false, "drift"},
      {"lsk2_churn_port2", PlatformClass::kFullyHeterogeneous, 4, 24,
       "uniform", 30, 114, "LS-K2", 20, 2, true, "churn-mixed"},
      // Mid-scale fleet fixtures (PR 7): 256 slaves, bursty arrivals, drawn
      // churn profiles on every slave. Large enough that the event queue
      // holds hundreds of live entries and the SoA ranking kernel is
      // genuinely exercised on the golden path, small enough to stay
      // reviewable.
      {"ls_fleet256_churn", PlatformClass::kFullyHeterogeneous, 256, 31,
       "bursty-fleet", 1500, 131, "LS", 20, 1, false, "churn-generated"},
      {"srpt_fleet256_churn", PlatformClass::kFullyHeterogeneous, 256, 32,
       "bursty-fleet", 1200, 132, "SRPT", 20, 1, false, "churn-generated"},
      {"rr_fleet256_churn", PlatformClass::kCommHomogeneous, 256, 33,
       "bursty-fleet", 1000, 133, "RR", 20, 1, false, "churn-generated"},
      // Least-loaded federations: releases quantized so every epoch routes
      // several tasks off one load observation, a static and a churn fleet.
      {"ls_k4_leastloaded_static", PlatformClass::kFullyHeterogeneous, 32, 41,
       "quantized", 400, 141, "LS", 20, 1, false, "", 4},
      {"ls_k8_leastloaded_churn", PlatformClass::kFullyHeterogeneous, 64, 42,
       "quantized", 500, 142, "LS", 20, 1, false, "churn-generated", 8},
      // Meta policies, static and churn. The static portfolio also runs as
      // RebuildPortfolio on the ReferenceEngine, which pins the portfolio's
      // incremental projection against the fresh-snapshot oracle; the
      // churn fixtures re-dispatch work mid-decision-stream.
      {"portfolio_static_het", PlatformClass::kFullyHeterogeneous, 6, 51,
       "bursty", 60, 151, "portfolio:LS;SRPT;rank:queue+horizon:4"},
      {"portfolio_churn_het", PlatformClass::kFullyHeterogeneous, 6, 56,
       "poisson", 60, 152, "portfolio:LS;SRPT;rank:queue+horizon:4", 20, 1,
       false, "churn-mixed"},
      {"hedge_static_het", PlatformClass::kFullyHeterogeneous, 6, 53, "bursty",
       60, 153, "hedge:LS;rank:queue+window:8+hyst:2"},
      {"hedge_churn_het", PlatformClass::kFullyHeterogeneous, 6, 54, "poisson",
       60, 154, "hedge:LS;rank:queue+window:8+hyst:2", 20, 1, false,
       "churn-mixed"},
  };
  return cases;
}

Workload make_workload(const GoldenCase& c) {
  util::Rng rng(c.workload_seed);
  if (c.workload == "all-at-zero") return Workload::all_at_zero(c.tasks);
  if (c.workload == "poisson") return Workload::poisson(c.tasks, 2.0, rng);
  if (c.workload == "bursty") return Workload::bursty(c.tasks, 5, 2.0, rng);
  if (c.workload == "uniform") return Workload::uniform(c.tasks, 15.0, rng);
  if (c.workload == "inhomogeneous") {
    return Workload::inhomogeneous_poisson(c.tasks, 2.0, 0.9, 8.0, rng);
  }
  if (c.workload == "pareto") {
    return Workload::poisson(c.tasks, 2.0, rng).with_pareto_sizes(1.5, 20.0,
                                                                  rng);
  }
  if (c.workload == "bursty-fleet") {
    // Large clumps of simultaneous releases: many tied event instants,
    // arriving fast enough to keep a 256-slave backlog.
    return Workload::bursty(c.tasks, 32, 0.5, rng);
  }
  if (c.workload == "quantized") {
    // Poisson releases snapped down to a 1 s grid: duplicate release
    // instants, several tasks per least-loaded routing epoch.
    std::vector<TaskSpec> tasks = Workload::poisson(c.tasks, 4.0, rng).tasks();
    for (TaskSpec& t : tasks) t.release = std::floor(t.release);
    return Workload(std::move(tasks));
  }
  throw std::logic_error("golden: unknown workload '" + c.workload + "'");
}

EngineOptions make_options(const GoldenCase& c) {
  EngineOptions options;
  options.enable_trace = true;
  options.port_capacity = c.port_capacity;
  if (c.slowdown) {
    options.slowdowns.push_back(SlowdownWindow{0, 1.0, 6.0, 2.0});
    options.slowdowns.push_back(SlowdownWindow{1, 3.0, 9.0, 1.5});
  }
  if (!c.avail.empty()) {
    using platform::AvailabilityProfile;
    std::vector<AvailabilityProfile> profiles(
        static_cast<std::size_t>(c.slaves));
    if (c.avail == "outage") {
      // One long outage on slave 0, mid-campaign.
      profiles[0] = AvailabilityProfile({{3.0, false, 1.0}, {9.0, true, 1.0}});
    } else if (c.avail == "drift") {
      // Speed wandering on two slaves, no outages.
      profiles[0] = AvailabilityProfile(
          {{2.0, true, 0.6}, {7.0, true, 1.4}, {12.0, true, 1.0}});
      profiles[1] = AvailabilityProfile({{4.0, true, 1.8}});
    } else if (c.avail == "churn-mixed") {
      // Repeated short outages on slave 0 plus drift on slave 1.
      profiles[0] = AvailabilityProfile({{1.0, false, 1.0},
                                         {2.5, true, 1.0},
                                         {6.0, false, 1.0},
                                         {7.0, true, 0.8}});
      profiles[1] = AvailabilityProfile({{3.0, true, 0.5}, {8.0, true, 1.2}});
    } else if (c.avail == "churn-generated") {
      // Fleet fixture: one drawn churn profile per slave, seeded off the
      // platform seed so the fixture is pinned without hand-writing 256
      // span lists.
      util::Rng arng(c.platform_seed ^ 0x5eed5eedULL);
      profiles = platform::generate_availability(
          platform::AvailabilityModel::kChurn, c.slaves, /*mtbf=*/25.0,
          /*outage_frac=*/0.1, /*horizon=*/120.0, arng);
    } else {
      throw std::logic_error("golden: unknown avail fixture '" + c.avail +
                             "'");
    }
    options.availability = std::move(profiles);
  }
  return options;
}

/// Deterministic max-precision trace dump (raw commit order, not the
/// display sort of Trace::to_string, so nothing can reorder silently).
std::string serialize_trace(const Trace& trace) {
  std::ostringstream out;
  out.precision(17);
  for (const TraceEvent& e : trace.events()) {
    out << to_string(e.kind) << ' ' << e.time << ' ' << e.task << ' '
        << e.slave << ' ' << e.aux << '\n';
  }
  return out.str();
}

template <typename Engine>
std::string render(const GoldenCase& c, Engine& engine) {
  engine.load(make_workload(c));
  engine.run_to_completion();
  std::ostringstream out;
  out << "# golden trace: " << c.name << "\n"
      << "# scheduler=" << c.scheduler << " lookahead=" << c.lookahead
      << " port=" << c.port_capacity << " slaves=" << c.slaves;
  if (c.shards > 1) out << " shards=" << c.shards << " routing=least-loaded";
  out << "\n"
      << to_csv(engine.schedule()) << "--- trace ---\n"
      << serialize_trace(engine.trace());
  return out.str();
}

std::string golden_path(const GoldenCase& c) {
  return std::string(MSOL_GOLDEN_DIR) + "/" + c.name + ".golden";
}

std::string run_case(const GoldenCase& c) {
  util::Rng rng(c.platform_seed);
  const platform::Platform plat =
      platform::PlatformGenerator().generate(c.cls, c.slaves, rng);
  if (c.shards > 1) {
    ShardedEngineOptions options;
    options.shards = c.shards;
    options.routing = ShardRouting::kLeastLoaded;
    options.engine = make_options(c);
    ShardedEngine engine(
        plat,
        [&] { return algorithms::make_scheduler(c.scheduler, c.lookahead); },
        std::move(options));
    return render(c, engine);
  }
  const auto scheduler = algorithms::make_scheduler(c.scheduler, c.lookahead);
  OnePortEngine engine(plat, *scheduler, make_options(c));
  const std::string actual = render(c, engine);

  // The reference engine must serialize to the very same bytes — the golden
  // files pin down *the model*, not one implementation of it. Availability
  // cases have no second implementation (the frozen reference predates the
  // feature), so there the golden file alone is the specification. A
  // portfolio runs on the reference engine as RebuildPortfolio, the
  // fresh-snapshot oracle of PortfolioPolicy's delta-driven projection, so
  // its golden is cross-checked by a second implementation of both.
  if (c.avail.empty()) {
    const std::unique_ptr<OnlineScheduler> ref_scheduler =
        c.scheduler.rfind("portfolio:", 0) == 0
            ? std::make_unique<algorithms::meta::RebuildPortfolio>(
                  algorithms::meta::parse_meta_spec(c.scheduler,
                                                    c.lookahead))
            : algorithms::make_scheduler(c.scheduler, c.lookahead);
    ReferenceEngine reference(plat, *ref_scheduler, make_options(c));
    EXPECT_EQ(actual, render(c, reference)) << c.name << ": engines diverge";
  }
  return actual;
}

bool regen_requested() {
  const char* env = std::getenv("MSOL_REGEN_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

class GoldenTraces : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenTraces, ByteExactAgainstCheckedInTrace) {
  const GoldenCase& c = golden_cases()[GetParam()];
  const std::string actual = run_case(c);

  if (regen_requested()) {
    std::ofstream out(golden_path(c), std::ios::trunc | std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path(c);
    out << actual;
    GTEST_SKIP() << "regenerated " << golden_path(c);
  }

  std::ifstream in(golden_path(c), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path(c)
                  << " (run with MSOL_REGEN_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << c.name
      << ": schedule/trace drifted from the checked-in golden. If this "
         "change is intentional, regenerate with MSOL_REGEN_GOLDEN=1 and "
         "review the diff.";
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenTraces,
                         ::testing::Range<std::size_t>(0,
                                                       golden_cases().size()));

// The sharded engine at K=1 must reproduce the very same golden bytes: the
// identity partition, routing pass, and merge layer all have to be exact
// no-ops on every pinned single-engine fixture (availability, slowdowns,
// port capacity, 256-slave fleets included).
class ShardedGoldenTraces : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedGoldenTraces, SingleShardReproducesTheGoldenBytes) {
  const GoldenCase& c = golden_cases()[GetParam()];
  if (regen_requested()) GTEST_SKIP() << "regen is handled by GoldenTraces";
  if (c.shards > 1) GTEST_SKIP() << "already a sharded fixture";

  util::Rng rng(c.platform_seed);
  const platform::Platform plat =
      platform::PlatformGenerator().generate(c.cls, c.slaves, rng);
  ShardedEngineOptions options;
  options.shards = 1;
  options.engine = make_options(c);
  ShardedEngine engine(
      plat,
      [&] { return algorithms::make_scheduler(c.scheduler, c.lookahead); },
      std::move(options));
  const std::string actual = render(c, engine);

  std::ifstream in(golden_path(c), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path(c);
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << c.name << ": ShardedEngine at K=1 diverges from the golden bytes";
}

INSTANTIATE_TEST_SUITE_P(Cases, ShardedGoldenTraces,
                         ::testing::Range<std::size_t>(0,
                                                       golden_cases().size()));

}  // namespace
}  // namespace msol::core
