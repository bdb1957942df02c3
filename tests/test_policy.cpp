// The composable policy framework: spec mini-language round-trips, the
// canonical decomposition of every legacy registry name, and the behavior
// of the component combinations no monolithic scheduler ever offered
// (throttle x any ranker, quota filters, batch/pace gates, epsilon bands).
//
// Bit-identity of the 11 legacy names against the pre-refactor monoliths
// is pinned elsewhere: the frozen golden traces (tests/golden/) and the
// differential suite were generated by the monolithic classes and now run
// through ComposedPolicy unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "algorithms/policy.hpp"
#include "algorithms/policy_spec.hpp"
#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "platform/availability.hpp"
#include "platform/generator.hpp"
#include "util/rng.hpp"

namespace msol::algorithms {
namespace {

using core::Schedule;
using core::Workload;
using platform::Platform;
using platform::PlatformClass;
using platform::SlaveSpec;

std::vector<std::string> all_registry_names() {
  std::vector<std::string> names = listed_algorithm_names();
  names.push_back("LS-K1");
  names.push_back("LS-K7");
  return names;
}

/// A corpus of valid specs exercising every component and sugar clause.
std::vector<std::string> spec_corpus() {
  return {
      "LS",
      "SRPT",
      "SRPT+throttle:2",
      "LS+gate:batch:5",
      "LS+gate:pace:0.25",
      "LS+tie:fastlink",
      "RLS+eps:0.3+seed:7",
      "RANDOM+seed:9",
      "MINREADY+filter:free",
      "WRR+gate:batch:3",
      "SLJF+lookahead:12",
      "rank:completion+eps:0.15+tie:fastlink",
      "rank:completion+eps:0.05+tie:rng:11",
      "rank:ready+throttle:3",
      "rank:queue+tie:fastlink",
      "rank:comm+filter:free",
      "rank:commcomp",
      "rank:const+tie:rng",
      "filter:quota+rank:completion",
      "filter:quota:2.5+rank:ready",
      "rank:cyclic:comm+gate:pace:0.5",
      "rank:plan:sljfwc:30",
      "RR+filter:throttle:2",
      // Negative-score rankers under an epsilon band (wrr scores are
      // -credit): the band must widen upward from the best, not collapse.
      "rank:wrr+eps:0.1+tie:rng",
      "rank:wrr+eps:0.1",
      // Learned linear blends (weight order: completion, comm, comp,
      // queue, ready), including negative and non-normalized weights.
      "rank:linear:1:0:0:0:0",
      "rank:linear:0:0.2:0:0.1:0.7",
      "rank:linear:-0.5:2:0:0.25:1e-3+tie:fastlink",
      "rank:linear:0:0:0:1:0+throttle:2",
  };
}

// ------------------------------------------------------------ round-trip ----

TEST(PolicySpec, RegistryNamesRoundTripThroughTheSpecLanguage) {
  for (const std::string& name : all_registry_names()) {
    const PolicySpec spec = parse_policy_spec(name);
    EXPECT_EQ(canonical_name(spec), name) << name;
    // name -> spec -> serialize -> parse -> name
    const PolicySpec reparsed = parse_policy_spec(to_string(spec));
    EXPECT_EQ(reparsed, spec) << name;
    EXPECT_EQ(canonical_name(reparsed), name) << name;
    // The scheduler object reports the legacy name, exactly as the
    // monolithic classes did.
    EXPECT_EQ(make_scheduler(name)->name(), name);
  }
}

TEST(PolicySpec, EveryParseableSpecSerializesToAFixpoint) {
  for (const std::string& text : spec_corpus()) {
    const PolicySpec spec = parse_policy_spec(text);
    const std::string canonical = to_string(spec);
    const PolicySpec reparsed = parse_policy_spec(canonical);
    EXPECT_EQ(reparsed, spec) << text;
    EXPECT_EQ(to_string(reparsed), canonical) << text;
  }
}

TEST(PolicySpec, LargeNumbersSerializeWithoutAClauseSeparator) {
  // 710 formats as "7.1e+02", whose '+' split the serialized spec into a
  // bogus clause, so these specs did not survive their own serializer.
  for (const std::string text :
       {"rank:linear:0:0.2:0:0:710", "rank:linear:1e25:0:0:0:1e-300",
        "filter:quota:1e6+rank:completion", "rank:completion+eps:250",
        "LS+gate:pace:1e300"}) {
    const PolicySpec spec = parse_policy_spec(text);
    EXPECT_EQ(parse_policy_spec(to_string(spec)), spec) << to_string(spec);
  }
}

TEST(PolicySpec, CanonicalNameSurvivesRedundantClauses) {
  // A clause that switches a component away leaves no stale parameters
  // behind: LS-K3 with the filter put back to `all` *is* LS.
  EXPECT_EQ(canonical_name(parse_policy_spec("LS-K3+filter:all")), "LS");
  EXPECT_EQ(parse_policy_spec("LS-K3+filter:all"), parse_policy_spec("LS"));
  // Seeds and lookahead never change what a legacy policy is.
  EXPECT_EQ(canonical_name(parse_policy_spec("RANDOM+seed:123")), "RANDOM");
  EXPECT_EQ(canonical_name(parse_policy_spec("SLJF+lookahead:3")), "SLJF");
  // A seed without an rng tie (and a lookahead without a plan ranker) is
  // inert and normalizes away, so the fixpoint invariant holds for them.
  EXPECT_EQ(parse_policy_spec("LS+seed:7"), parse_policy_spec("LS"));
  EXPECT_EQ(parse_policy_spec("LS+lookahead:9"), parse_policy_spec("LS"));
  // ... but a different epsilon is a different policy.
  EXPECT_EQ(canonical_name(parse_policy_spec("RLS+eps:0.3")), "");
}

TEST(PolicySpec, NonCanonicalCompositionsNameThemselvesBySpec) {
  const auto policy = make_scheduler("SRPT+throttle:2");
  EXPECT_EQ(policy->name(),
            "filter:throttle:2+rank:comp+tie:fastlink+gate:always");
}

TEST(PolicySpec, CanonicalSpecEchoesConstructionParameters) {
  EXPECT_EQ(canonical_spec("SLJF", 20),
            "filter:all+rank:plan:sljf:20+tie:index+gate:always");
  EXPECT_EQ(canonical_spec("RANDOM", 1000, 7),
            "filter:all+rank:const+tie:rng:7+gate:always");
}

// ---------------------------------------------------------- parse errors ----

TEST(PolicySpec, RejectsMalformedSpecs) {
  const std::vector<std::string> bad = {
      "",
      "HEFT",
      "LS-K2junk",
      "LS-K0",
      "LS-K",
      "LS-K-1",
      "rank:nope",
      "filter:throttle",
      "filter:throttle:0",
      "filter:throttle:2x",
      "filter:quota:0",
      "tie:rng:-1",
      "tie:coin",
      "gate:batch:0",
      "gate:pace:0",
      "gate:pace:-1",
      "eps:-0.1",
      "eps:0.1x",
      "lookahead:-1",
      // K above kMaxLookahead would make a plan ranker allocate O(K).
      "lookahead:1000001",
      "SLJFWC+lookahead:2147483647",
      "rank:plan:sljf:1000001",
      "LS+",
      "LS+frobnicate:3",
      "rank:cyclic",
      "rank:cyclic:nope",
      "rank:plan:heft",
      "SRPT+RANDOM",  // legacy names only lead a spec
      // rank:linear takes exactly kLinearFeatureCount strict doubles.
      "rank:linear",
      "rank:linear:1",
      "rank:linear:1:0:0:0",
      "rank:linear:1:0:0:0:0:0",
      "rank:linear:1:0:0:0:x",
      "rank:linear:1:0:0:0:nan",
  };
  for (const std::string& text : bad) {
    EXPECT_THROW(parse_policy_spec(text), std::invalid_argument) << text;
    EXPECT_THROW(make_scheduler(text), std::invalid_argument) << text;
  }
}

TEST(PolicySpec, LookaheadIsCappedAtKMaxLookahead) {
  // Parsing alone: a plan ranker at the cap is never built here, since it
  // plans kMaxLookahead sends at its first decision.
  EXPECT_EQ(parse_policy_spec("SLJF+lookahead:1000000").lookahead,
            kMaxLookahead);
  EXPECT_EQ(parse_policy_spec("rank:plan:sljfwc:1000000").lookahead,
            kMaxLookahead);
  // A default K above the cap (make_scheduler's argument) is refused when
  // the plan ranker is built, before it allocates anything.
  EXPECT_THROW(make_scheduler("SLJF", kMaxLookahead + 1),
               std::invalid_argument);
  EXPECT_THROW(make_scheduler("SLJFWC", 2147483647), std::invalid_argument);
}

TEST(PolicySpec, RejectsIntegersThatDoNotFitInInt) {
  // Each of these used to be cast to int silently: LS-K4294967297 ran as
  // LS-K1.
  for (const std::string text :
       {"LS-K4294967297", "filter:throttle:4294967297", "gate:batch:4294967297",
        "rank:plan:sljf:4294967296", "LS+lookahead:4294967296",
        "tie:rng:18446744073709551616"}) {
    EXPECT_THROW(parse_policy_spec(text), std::invalid_argument) << text;
  }
}

TEST(PolicySpec, ErrorsNameTheOffendingClauseAndOffset) {
  const auto message_of = [](const std::string& text) {
    try {
      parse_policy_spec(text);
    } catch (const std::invalid_argument& error) {
      return std::string(error.what());
    }
    return std::string();
  };
  // The failing clause and its character offset appear in the message, so
  // a bad entry deep inside a long grid spec is locatable at a glance.
  const std::string msg = message_of("LS+throttle:2+gate:pace:0x");
  EXPECT_NE(msg.find("policy spec 'LS+throttle:2+gate:pace:0x'"),
            std::string::npos)
      << msg;
  EXPECT_NE(msg.find("clause 'gate:pace:0x'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("(offset 14)"), std::string::npos) << msg;

  EXPECT_NE(message_of("LS+frobnicate:3").find("clause 'frobnicate:3'"),
            std::string::npos);
  EXPECT_NE(message_of("LS+frobnicate:3").find("(offset 3)"),
            std::string::npos);
  // The first clause sits at offset 0.
  EXPECT_NE(message_of("rank:linear:1:2").find("(offset 0)"),
            std::string::npos);
  EXPECT_NE(message_of("rank:linear:1:2").find("clause 'rank:linear:1:2'"),
            std::string::npos);
}

// ------------------------------------------------- spec-path equivalence ----

/// The spec-language route and the name route must build the same policy.
TEST(ComposedPolicy, CanonicalSpecStringBuildsTheIdenticalPolicy) {
  util::Rng rng(404);
  const platform::PlatformGenerator gen;
  for (const std::string& name : all_registry_names()) {
    const Platform plat =
        gen.generate(PlatformClass::kFullyHeterogeneous, 4, rng);
    const Workload work = Workload::poisson(30, 2.0, rng);
    const auto by_name = make_scheduler(name, 10);
    const auto by_spec = make_scheduler(canonical_spec(name, 10), 10);
    const Schedule a = core::simulate(plat, work, *by_name);
    const Schedule b = core::simulate(plat, work, *by_spec);
    for (int i = 0; i < work.size(); ++i) {
      ASSERT_EQ(a.at(i).slave, b.at(i).slave) << name << " task " << i;
      ASSERT_DOUBLE_EQ(a.at(i).comp_end, b.at(i).comp_end) << name;
    }
  }
}

TEST(ComposedPolicy, ResetRestoresEveryStatefulComponent) {
  util::Rng rng(405);
  const Platform plat = platform::PlatformGenerator().generate(
      PlatformClass::kFullyHeterogeneous, 3, rng);
  const Workload work = Workload::poisson(25, 2.0, rng);
  // Stateful on every axis: cyclic cursor, wrr credits, plan cursor, rng
  // tie stream, quota counts, pace clock.
  for (std::string spec :
       {"RR", "WRR", "SLJF+lookahead:8", "RLS", "RANDOM",
        "filter:quota+rank:completion", "LS+gate:pace:0.2"}) {
    const auto policy = make_scheduler(spec, 8);
    const Schedule first = core::simulate(plat, work, *policy);
    const Schedule second = core::simulate(plat, work, *policy);
    for (int i = 0; i < work.size(); ++i) {
      ASSERT_EQ(first.at(i).slave, second.at(i).slave) << spec;
    }
  }
}

// ------------------------------------------------------- new composition ----

TEST(ComposedPolicy, ThrottleComposesWithAnyRanker) {
  util::Rng rng(406);
  const Platform plat = platform::PlatformGenerator().generate(
      PlatformClass::kFullyHeterogeneous, 3, rng);
  const Workload work = Workload::all_at_zero(18);
  for (std::string spec :
       {"SRPT+throttle:2", "rank:ready+throttle:1", "RR+filter:throttle:2"}) {
    const auto policy = make_scheduler(spec);
    const Schedule s = core::simulate(plat, work, *policy);
    core::validate_or_throw(plat, work, s);
    // Throttle invariant: never more than k tasks of one slave in the
    // system at any send instant.
    const int cap = spec.find(":1") != std::string::npos ? 1 : 2;
    for (const core::TaskRecord& r : s.records()) {
      int concurrent = 0;
      for (const core::TaskRecord& other : s.records()) {
        if (other.slave == r.slave && other.send_start <= r.send_start &&
            other.comp_end > r.send_start + core::kTimeEps) {
          ++concurrent;
        }
      }
      EXPECT_LE(concurrent, cap) << spec;
    }
  }
}

TEST(ComposedPolicy, PaceGateEnforcesTheMinimumSendGap) {
  const Platform plat({SlaveSpec{0.1, 1.0}, SlaveSpec{0.1, 1.0}});
  const Workload work = Workload::all_at_zero(8);
  const auto policy = make_scheduler("LS+gate:pace:0.5");
  const Schedule s = core::simulate(plat, work, *policy);
  core::validate_or_throw(plat, work, s);
  std::vector<core::Time> sends;
  for (const core::TaskRecord& r : s.records()) sends.push_back(r.send_start);
  std::sort(sends.begin(), sends.end());
  for (std::size_t i = 1; i < sends.size(); ++i) {
    EXPECT_GE(sends[i] - sends[i - 1], 0.5 - core::kTimeEps);
  }
}

TEST(ComposedPolicy, BatchGateHoldsSendsUntilTheBacklogBuilds) {
  const Platform plat({SlaveSpec{0.01, 0.1}});
  // Slow trickle of releases: 0, 1, 2, ... The gate must idle until four
  // tasks are pending, so the first send happens at release[3] = 3.
  const Workload work =
      Workload::from_releases({0.0, 1.0, 2.0, 3.0, 4.0, 5.0});
  const auto policy = make_scheduler("LS+gate:batch:4");
  const Schedule s = core::simulate(plat, work, *policy);
  core::validate_or_throw(plat, work, s);
  core::Time first_send = s.at(0).send_start;
  for (const core::TaskRecord& r : s.records()) {
    first_send = std::min(first_send, r.send_start);
  }
  EXPECT_NEAR(first_send, 3.0, 1e-9);
}

TEST(ComposedPolicy, BatchGateFlushesTheTailInsteadOfDeadlocking) {
  // 3 tasks, threshold 10: the backlog can never reach the threshold, so
  // the all-released flush must let them through.
  const Platform plat({SlaveSpec{0.2, 1.0}});
  const Workload work = Workload::all_at_zero(3);
  const auto policy = make_scheduler("LS+gate:batch:10");
  const Schedule s = core::simulate(plat, work, *policy);
  EXPECT_EQ(s.size(), 3);
}

TEST(ComposedPolicy, QuotaFilterTracksTheThroughputShares) {
  // Shares 1 : 1/3 -> the fast slave gets 3/4 of the stream.
  const Platform plat({SlaveSpec{0.1, 1.0}, SlaveSpec{0.1, 3.0}});
  const int n = 200;
  const auto policy = make_scheduler("filter:quota+rank:ready");
  const Schedule s = core::simulate(plat, Workload::all_at_zero(n), *policy);
  int on_fast = 0;
  for (const core::TaskRecord& r : s.records()) on_fast += (r.slave == 0);
  EXPECT_NEAR(static_cast<double>(on_fast) / n, 0.75, 0.03);
}

TEST(ComposedPolicy, QuotaFilterNeverUsesZeroShareSlaves) {
  // The port saturates on the first slave; the second is outside the LP
  // support and must never be admitted, whatever the ranker prefers.
  const Platform plat({SlaveSpec{1.0, 0.5}, SlaveSpec{10.0, 0.5}});
  const auto policy = make_scheduler("filter:quota+rank:queue");
  const Schedule s = core::simulate(plat, Workload::all_at_zero(12), *policy);
  for (const core::TaskRecord& r : s.records()) EXPECT_EQ(r.slave, 0);
}

TEST(ComposedPolicy, EpsilonBandRandomizesNearTiesForAnyRanker) {
  // Two near-identical slaves, a 30% band: across seeds both slaves must
  // get the first task.
  const Platform plat({SlaveSpec{0.5, 2.0}, SlaveSpec{0.5, 2.1}});
  bool saw0 = false, saw1 = false;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto policy = make_scheduler("rank:completion+eps:0.3+tie:rng", 1000,
                                       seed);
    const Schedule s = core::simulate(plat, Workload::all_at_zero(1), *policy);
    (s.at(0).slave == 0 ? saw0 : saw1) = true;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

TEST(ComposedPolicy, EpsilonBandWithFastlinkIsDeterministicallyGreedy) {
  // Within the band, tie:fastlink picks the cheapest link: slave 1 has a
  // slightly worse completion (within 30%) but a much cheaper link.
  const Platform plat({SlaveSpec{1.0, 2.0}, SlaveSpec{0.2, 2.5}});
  const auto policy = make_scheduler("rank:completion+eps:0.3+tie:fastlink");
  const Schedule s = core::simulate(plat, Workload::all_at_zero(1), *policy);
  EXPECT_EQ(s.at(0).slave, 1);
}

TEST(ComposedPolicy, FreeFilterComposesWithLinkRanker) {
  // Cheapest free link: both free at t=0 -> slave 1 (cheaper link), even
  // though slave 0 computes faster.
  const Platform plat({SlaveSpec{2.0, 1.0}, SlaveSpec{0.5, 4.0}});
  const auto policy = make_scheduler("rank:comm+filter:free");
  const Schedule s = core::simulate(plat, Workload::all_at_zero(1), *policy);
  EXPECT_EQ(s.at(0).slave, 1);
}

/// Sweep the whole zoo across platform classes and validate every
/// schedule: any composition the grammar accepts must produce feasible
/// one-port schedules.
TEST(ComposedPolicy, ZooSweepsStayFeasibleAcrossPlatformClasses) {
  util::Rng rng(407);
  const platform::PlatformGenerator gen;
  const PlatformClass classes[] = {PlatformClass::kFullyHomogeneous,
                                   PlatformClass::kCompHomogeneous,
                                   PlatformClass::kFullyHeterogeneous};
  for (const std::string& text : spec_corpus()) {
    for (PlatformClass cls : classes) {
      const Platform plat = gen.generate(cls, 4, rng);
      const Workload work = Workload::poisson(24, 2.0, rng);
      const auto policy = make_scheduler(text, 12);
      const Schedule s = core::simulate(plat, work, *policy);
      EXPECT_EQ(s.size(), work.size()) << text;
      EXPECT_TRUE(core::validate(plat, work, s).empty()) << text;
    }
  }
}

TEST(ComposedPolicy, SpecSeedsAreDeterministic) {
  util::Rng rng(408);
  const Platform plat = platform::PlatformGenerator().generate(
      PlatformClass::kFullyHeterogeneous, 4, rng);
  const Workload work = Workload::poisson(30, 2.0, rng);
  const auto a = make_scheduler("rank:completion+eps:0.2+tie:rng:77");
  const auto b = make_scheduler("rank:completion+eps:0.2+tie:rng:77");
  const Schedule sa = core::simulate(plat, work, *a);
  const Schedule sb = core::simulate(plat, work, *b);
  for (int i = 0; i < work.size(); ++i) {
    EXPECT_EQ(sa.at(i).slave, sb.at(i).slave);
  }
}

// ------------------------------------------------------ fixed-order walk ----

/// Runs a fixed-order composition (static key or cyclic cursor, per-slave
/// filter, exact scan) and checks every decision against a brute-force
/// argmin of the legacy scan: admitted slaves in index order through the
/// virtual probes, a later slave winning on a strictly smaller score (the
/// rankers' eps is 0), or under tie:fastlink on an equal score and a
/// strictly cheaper link. The cyclic cursor is tracked here from the
/// committed slaves.
class FixedOrderOracle : public core::OnlineScheduler {
 public:
  explicit FixedOrderOracle(const std::string& text)
      : spec_(parse_policy_spec(text)), policy_(spec_) {}
  std::string name() const override { return "oracle:" + policy_.name(); }

  core::Decision decide(const core::EngineView& engine) override {
    const core::SlaveId expected = argmin(engine);
    const core::Decision decision = policy_.decide(engine);
    const auto* assign = std::get_if<core::Assign>(&decision);
    const core::SlaveId got = assign != nullptr ? assign->slave : -1;
    ++decisions;
    if (expected >= 0 && expected != lowest_admitted_) ++order_decided;
    if (got != expected && mismatches++ == 0) {
      first_mismatch = "t=" + std::to_string(engine.now()) + " walk " +
                       std::to_string(got) + " scan " +
                       std::to_string(expected);
    }
    if (assign != nullptr && cyclic()) {
      cursor_ = (position(assign->slave) + 1) % cycle_.size();
    }
    return decision;
  }
  void reset() override {
    policy_.reset();
    cursor_ = 0;
  }

  int decisions = 0;
  int order_decided = 0;  ///< the scan did not pick the lowest admitted id
  int mismatches = 0;
  std::string first_mismatch;

 private:
  bool cyclic() const {
    return spec_.ranker == RankerKind::kCyclicCommComp ||
           spec_.ranker == RankerKind::kCyclicComm ||
           spec_.ranker == RankerKind::kCyclicComp;
  }
  std::size_t position(core::SlaveId j) const {
    return static_cast<std::size_t>(
        std::find(cycle_.begin(), cycle_.end(), j) - cycle_.begin());
  }
  double score(const Platform& plat, core::SlaveId j) const {
    switch (spec_.ranker) {
      case RankerKind::kComp: return plat.comp(j);
      case RankerKind::kComm: return plat.comm(j);
      case RankerKind::kCommComp: return plat.comm(j) + plat.comp(j);
      default:
        return static_cast<double>((position(j) + cycle_.size() - cursor_) %
                                   cycle_.size());
    }
  }
  core::SlaveId argmin(const core::EngineView& engine) {
    const Platform& plat = engine.platform();
    switch (spec_.ranker) {
      case RankerKind::kCyclicCommComp:
        cycle_ = plat.order_by_comm_plus_comp();
        break;
      case RankerKind::kCyclicComm: cycle_ = plat.order_by_comm(); break;
      case RankerKind::kCyclicComp: cycle_ = plat.order_by_comp(); break;
      default: break;
    }
    core::SlaveId best = -1;
    lowest_admitted_ = -1;
    for (core::SlaveId j = 0; j < plat.size(); ++j) {
      if (!engine.is_available(j)) continue;
      if (spec_.filter == FilterKind::kFree && !engine.slave_free_now(j)) {
        continue;
      }
      if (best < 0) {
        best = lowest_admitted_ = j;
        continue;
      }
      const double s = score(plat, j);
      const double s_best = score(plat, best);
      if (s < s_best ||
          (spec_.tie == TieKind::kFastLink && s <= s_best &&
           plat.comm(j) < plat.comm(best))) {
        best = j;
      }
    }
    return best;
  }

  PolicySpec spec_;
  ComposedPolicy policy_;
  std::vector<core::SlaveId> cycle_;
  std::size_t cursor_ = 0;
  core::SlaveId lowest_admitted_ = -1;
};

TEST(ComposedPolicy, FixedOrderWalkPicksTheLegacyScansSlave) {
  util::Rng rng(409);
  const platform::PlatformGenerator gen;
  // Homogeneous classes leave every choice to the tie rules (index, then
  // the cheaper link when only p_j ties); the two-valued platform mixes
  // key ties with distinct links (c + p = 3 either way round).
  std::vector<Platform> platforms;
  for (int round = 0; round < 3; ++round) {
    for (PlatformClass cls :
         {PlatformClass::kFullyHomogeneous, PlatformClass::kCommHomogeneous,
          PlatformClass::kCompHomogeneous}) {
      platforms.push_back(
          gen.generate(cls, static_cast<int>(rng.uniform_int(1, 12)), rng));
    }
    std::vector<SlaveSpec> coarse;
    for (int j = 0; j < 10; ++j) {
      coarse.push_back(SlaveSpec{rng.chance(0.5) ? 1.0 : 2.0,
                                 rng.chance(0.5) ? 1.0 : 2.0});
    }
    platforms.emplace_back(std::move(coarse));
  }

  for (const std::string text :
       {"RR", "RRC", "RRP", "SRPT", "rank:comp", "rank:comm+filter:free",
        "rank:commcomp+tie:fastlink", "rank:cyclic:comp+filter:free"}) {
    // One oracle (one policy object) across every platform and engine: the
    // cached order must follow the platform, not the engine's address.
    FixedOrderOracle oracle(text);
    for (const Platform& plat : platforms) {
      const Workload work = Workload::poisson(
          60, 1.5 * plat.aggregate_compute_rate(), rng);
      // Static and churning engine (the walk skips offline slaves).
      for (const bool churn : {false, true}) {
        core::EngineOptions options;
        if (churn) {
          options.availability = platform::generate_availability(
              platform::AvailabilityModel::kChurn, plat.size(), 3.0, 0.3,
              200.0, rng);
        }
        oracle.reset();
        core::OnePortEngine engine(plat, oracle, options);
        engine.load(work);
        engine.run_to_completion();
        const Schedule& s = engine.schedule();
        EXPECT_TRUE(core::validate(plat, work, s, options).empty())
            << text << (churn ? " churn" : " static");
      }
    }
    EXPECT_EQ(oracle.mismatches, 0) << text << ": " << oracle.first_mismatch;
    EXPECT_GT(oracle.order_decided, oracle.decisions / 20)
        << text << ": the order rarely mattered (" << oracle.order_decided
        << " of " << oracle.decisions << ")";
  }
}

// ----------------------------------------------------------- wrr shares ----

TEST(WrrShares, StillSolveTheThroughputLp) {
  const Platform plat({SlaveSpec{0.5, 1.0}, SlaveSpec{1.0, 2.0}});
  const std::vector<double> x = wrr_shares(plat);
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 0.5);
}

}  // namespace
}  // namespace msol::algorithms
