// The paper's claims, checked on the grids that reproduce its figures and
// on Table 1's adversaries, plus one claim about the meta-policy layer.
//
// Each figure test loads one examples/paper/*.grid with the same load_grid +
// expand path msol_run takes, runs every cell at the grid's own scale and
// seed, and checks the claim stated in that grid's header comment. Figure 2
// has no grid (it needs paired base/jittered runs), so its claim runs
// run_campaign twice at the campaign defaults, with and without jitter.
// The meta-policy claim runs members, fit and meta specs through
// run_campaign and experiments::fit_linear_weights. The Table 1 claims play
// the theorem adversaries, the hill-climbing search and the exhaustive
// optimum at fixed parameters and seeds; the bounds themselves are checked
// in test_theorems.
//
// The margin rule, fixed before any claim was first run: every claim is a
// set of orderings a <= b between two measured means (SRPT-normalized
// metrics, jitter ratios, or spreads of them) or between a measured value
// and a bound constant (Table 1's bounds, or 1.0 for SRPT or for a ratio
// to the best meta member), and an ordering holds when a <= b + kMargin. A
// claim is reproduced when all its orderings hold.
//
// A claim that does not reproduce stays in this file, recorded as
// kNotReproduced; the test then asserts that it still does not, so a change
// that flips any claim either way fails here. Every claim prints its
// observed values (ctest -L paper -V). Never re-seed or resize a grid, or
// change a claim's parameters, to make a claim pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/engine.hpp"
#include "core/validator.hpp"
#include "experiments/campaign.hpp"
#include "experiments/spec_fit.hpp"
#include "offline/exhaustive.hpp"
#include "platform/generator.hpp"
#include "runner/scenario.hpp"
#include "theory/adversary.hpp"
#include "theory/bounds.hpp"
#include "theory/search.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace msol {
namespace {

using experiments::AlgorithmResult;
using experiments::CampaignResult;

constexpr double kMargin = 0.02;

enum class Status { kReproduced, kNotReproduced };

/// One claim: its wording, the orderings that operationalize it, and
/// whether it reproduced at the grid's committed seed and scale.
class Claim {
 public:
  explicit Claim(std::string text) : text_(std::move(text)) {}

  /// Records the ordering a <= b (within kMargin).
  void at_most(const std::string& what, double a, double b) {
    const bool ok = a <= b + kMargin;
    std::ostringstream line;
    line << std::fixed << std::setprecision(3) << (ok ? "  ok    " : "  FAIL  ")
         << what << ": " << a << " <= " << b;
    lines_.push_back(line.str());
    holds_ = holds_ && ok;
  }

  void expect(Status recorded) const {
    std::cout << "[claim] " << text_ << " -- "
              << (holds_ ? "reproduced" : "not reproduced") << "\n";
    for (const std::string& line : lines_) std::cout << line << "\n";
    EXPECT_EQ(holds_, recorded == Status::kReproduced)
        << text_ << (holds_ ? ": now reproduces" : ": no longer reproduces");
  }

 private:
  std::string text_;
  std::vector<std::string> lines_;
  bool holds_ = true;
};

struct GridCell {
  runner::ScenarioSpec spec;
  CampaignResult result;
};

std::vector<GridCell> run_grid(const std::string& file) {
  const runner::ScenarioGrid grid =
      runner::load_grid(std::string(MSOL_PAPER_GRID_DIR) + "/" + file);
  std::vector<GridCell> cells;
  for (runner::ScenarioSpec& spec : runner::expand(grid)) {
    CampaignResult result = experiments::run_campaign(spec.config);
    cells.push_back({std::move(spec), std::move(result)});
  }
  return cells;
}

const AlgorithmResult& alg(const GridCell& cell, const std::string& name) {
  for (const AlgorithmResult& a : cell.result.algorithms) {
    if (a.name == name) return a;
  }
  throw std::invalid_argument("no algorithm " + name + " in " + cell.spec.id);
}

/// max - min of one normalized metric over a cell's algorithms.
template <typename Get>
double spread(const GridCell& cell, Get metric) {
  double lo = INFINITY;
  double hi = -INFINITY;
  for (const AlgorithmResult& a : cell.result.algorithms) {
    lo = std::min(lo, metric(a));
    hi = std::max(hi, metric(a));
  }
  return hi - lo;
}

double norm_makespan(const AlgorithmResult& a) { return a.norm_makespan.mean; }
double norm_sum_flow(const AlgorithmResult& a) { return a.norm_sum_flow.mean; }
double norm_max_flow(const AlgorithmResult& a) { return a.norm_max_flow.mean; }

struct Metric {
  const char* name;
  double (*get)(const AlgorithmResult&);
};
constexpr Metric kMetrics[] = {{"makespan", norm_makespan},
                               {"sum-flow", norm_sum_flow},
                               {"max-flow", norm_max_flow}};

TEST(Paper, Figure1aStaticHeuristicsBeatSrptOnHomogeneousPlatforms) {
  const std::vector<GridCell> cells = run_grid("fig1.grid");
  ASSERT_EQ(cells.size(), 4u);
  const GridCell& homogeneous = cells[0];
  ASSERT_EQ(homogeneous.spec.config.platform_class,
            platform::PlatformClass::kFullyHomogeneous);
  Claim claim("Fig 1(a): static heuristics beat SRPT on sum-flow");
  for (const char* name : {"RR", "RRC", "RRP", "SLJF", "SLJFWC"}) {
    claim.at_most(std::string(name) + " norm sum-flow vs SRPT",
                  norm_sum_flow(alg(homogeneous, name)), 1.0);
  }
  claim.expect(Status::kReproduced);
}

TEST(Paper, OnePortAblationSpreadCollapsesWithoutThePortConstraint) {
  const std::vector<GridCell> cells = run_grid("port.grid");
  ASSERT_EQ(cells.size(), 4u);
  const GridCell& one_port = cells.front();
  const GridCell& unbounded = cells.back();
  ASSERT_EQ(one_port.spec.config.port_capacity, 1);
  ASSERT_EQ(unbounded.spec.config.port_capacity, 0);
  Claim claim("Port ablation: the spread between algorithms collapses");
  claim.at_most("norm makespan spread, unbounded vs one-port",
                spread(unbounded, norm_makespan),
                spread(one_port, norm_makespan));
  claim.at_most("norm sum-flow spread, unbounded vs one-port",
                spread(unbounded, norm_sum_flow),
                spread(one_port, norm_sum_flow));
  claim.expect(Status::kNotReproduced);
}

TEST(Paper, Sec41LargerPlanningWindowGivesBetterAssignment) {
  const std::vector<GridCell> cells = run_grid("lookahead.grid");
  ASSERT_EQ(cells.size(), 1u);
  const GridCell& cell = cells[0];
  const int windows[] = {0, 10, 100, 1000};
  for (const char* variant : {"sljf", "sljfwc"}) {
    Claim claim(std::string("Sec 4.1: the greater K, the better ") + variant);
    const std::string prefix = std::string("rank:plan:") + variant + ":";
    for (int i = 1; i < 4; ++i) {
      const std::string larger = prefix + std::to_string(windows[i]);
      const std::string smaller = prefix + std::to_string(windows[i - 1]);
      for (const Metric& m : kMetrics) {
        claim.at_most(std::string("norm ") + m.name + " K=" +
                          std::to_string(windows[i]) + " vs K=" +
                          std::to_string(windows[i - 1]),
                      m.get(alg(cell, larger)), m.get(alg(cell, smaller)));
      }
    }
    claim.expect(Status::kReproduced);
  }
  Claim degenerate("Sec 4.1: K=0 degenerates to list scheduling");
  for (const char* spec : {"rank:plan:sljf:0", "rank:plan:sljfwc:0"}) {
    for (const Metric& m : kMetrics) {
      const double plan = m.get(alg(cell, spec));
      const double ls = m.get(alg(cell, "LS"));
      degenerate.at_most(std::string(spec) + " norm " + m.name + " vs LS",
                         plan, ls);
      degenerate.at_most(std::string("LS norm ") + m.name + " vs " + spec,
                         ls, plan);
    }
  }
  degenerate.expect(Status::kReproduced);
}

TEST(Paper, ThrottleInterpolatesBetweenSrptAndLs) {
  const std::vector<GridCell> cells = run_grid("throttle.grid");
  ASSERT_EQ(cells.size(), 1u);
  const GridCell& cell = cells[0];
  Claim fig1d("Fig 1(d): LS beats SRPT on makespan, loses on sum-flow");
  fig1d.at_most("LS norm makespan vs SRPT", norm_makespan(alg(cell, "LS")),
                1.0);
  fig1d.at_most("SRPT vs LS norm sum-flow", 1.0,
                norm_sum_flow(alg(cell, "LS")));
  fig1d.expect(Status::kNotReproduced);

  Claim curve("Throttle: LS-K maps the SRPT <-> LS trade-off curve");
  const std::vector<std::string> caps = {"LS-K1", "LS-K2", "LS-K3",
                                         "LS-K5", "LS-K10", "LS"};
  for (std::size_t i = 1; i < caps.size(); ++i) {
    const AlgorithmResult& looser = alg(cell, caps[i]);
    const AlgorithmResult& tighter = alg(cell, caps[i - 1]);
    curve.at_most("norm makespan " + caps[i] + " vs " + caps[i - 1],
                  norm_makespan(looser), norm_makespan(tighter));
    curve.at_most("norm sum-flow " + caps[i - 1] + " vs " + caps[i],
                  norm_sum_flow(tighter), norm_sum_flow(looser));
  }
  curve.expect(Status::kNotReproduced);
}

TEST(Paper, ExtendedPortfolioAdditionsWinWhereTheyShould) {
  const std::vector<GridCell> cells = run_grid("extended.grid");
  ASSERT_EQ(cells.size(), 4u);
  Claim wrr("Extended: WRR fixes the round-robin collapse");
  Claim throttled("Extended: LS-K3 has SRPT's sum-flow at LS's makespan");
  Claim minready("Extended: MINREADY only survives homogeneity");
  for (const GridCell& cell : cells) {
    const std::string cls =
        platform::to_string(cell.spec.config.platform_class);
    wrr.at_most(cls + " WRR vs RR norm makespan",
                norm_makespan(alg(cell, "WRR")),
                norm_makespan(alg(cell, "RR")));
    wrr.at_most(cls + " WRR vs RR norm sum-flow",
                norm_sum_flow(alg(cell, "WRR")),
                norm_sum_flow(alg(cell, "RR")));
    throttled.at_most(cls + " LS-K3 norm sum-flow vs SRPT",
                      norm_sum_flow(alg(cell, "LS-K3")), 1.0);
    throttled.at_most(cls + " LS-K3 vs LS norm makespan",
                      norm_makespan(alg(cell, "LS-K3")),
                      norm_makespan(alg(cell, "LS")));
    const double minready_makespan = norm_makespan(alg(cell, "MINREADY"));
    if (cell.spec.config.platform_class ==
        platform::PlatformClass::kFullyHomogeneous) {
      minready.at_most(cls + " MINREADY norm makespan vs SRPT",
                       minready_makespan, 1.0);
    } else {
      minready.at_most(cls + " SRPT vs MINREADY norm makespan", 1.0,
                       minready_makespan);
    }
  }
  wrr.expect(Status::kReproduced);
  throttled.expect(Status::kReproduced);
  minready.expect(Status::kNotReproduced);
}

TEST(Paper, ArrivalAblationKeepsTheFigure1dOrdering) {
  const std::vector<GridCell> cells = run_grid("arrival.grid");
  ASSERT_EQ(cells.size(), 9u);
  Claim claim("Arrival: LS beats SRPT on makespan, loses on sum-flow "
              "under sustained load");
  for (const GridCell& cell : cells) {
    const experiments::CampaignConfig& config = cell.spec.config;
    const std::string label = experiments::to_string(config.arrival) +
                              " load " + util::fmt(config.load, 1);
    const AlgorithmResult& ls = alg(cell, "LS");
    claim.at_most(label + " LS norm makespan vs SRPT", norm_makespan(ls),
                  1.0);
    if (config.arrival == experiments::ArrivalProcess::kPoisson &&
        config.load >= 0.9) {
      claim.at_most(label + " SRPT vs LS norm sum-flow", 1.0,
                    norm_sum_flow(ls));
    }
  }
  claim.expect(Status::kNotReproduced);
}

/// Mean over platforms of pert[r] / base[r].
double mean_ratio(const std::vector<double>& pert,
                  const std::vector<double>& base) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < pert.size(); ++r) {
    ratios.push_back(pert[r] / base[r]);
  }
  return util::summarize(ratios).mean;
}

TEST(Paper, Figure2MakespanIsTheRobustMetric) {
  // The campaign defaults: ten fully heterogeneous platforms, five slaves,
  // one thousand Poisson tasks at load 0.9, run with +/-10% jitter and with
  // identical tasks. On a static platform both campaigns draw the same
  // platforms and releases (see run_campaign's draw order), so entry r of
  // each raw series is the same instance.
  experiments::CampaignConfig config;
  config.size_jitter = 0.10;
  const CampaignResult jittered = experiments::run_campaign(config);
  config.size_jitter = 0.0;
  const CampaignResult identical = experiments::run_campaign(config);
  ASSERT_EQ(jittered.algorithms.size(), 7u);
  ASSERT_EQ(identical.algorithms.size(), 7u);
  Claim claim("Fig 2: makespan is robust to jitter, sum-flow and max-flow "
              "noticeably less so");
  for (std::size_t i = 0; i < jittered.algorithms.size(); ++i) {
    const AlgorithmResult& pert = jittered.algorithms[i];
    const AlgorithmResult& base = identical.algorithms[i];
    ASSERT_EQ(pert.name, base.name);
    const double makespan =
        std::abs(mean_ratio(pert.makespan_raw, base.makespan_raw) - 1.0);
    const double sum_flow =
        std::abs(mean_ratio(pert.sum_flow_raw, base.sum_flow_raw) - 1.0);
    const double max_flow =
        std::abs(mean_ratio(pert.max_flow_raw, base.max_flow_raw) - 1.0);
    claim.at_most(pert.name + " |makespan ratio - 1|", makespan, 0.0);
    claim.at_most(pert.name + " |makespan ratio - 1| vs |sum-flow ratio - 1|",
                  makespan, sum_flow);
    claim.at_most(pert.name + " |makespan ratio - 1| vs |max-flow ratio - 1|",
                  makespan, max_flow);
  }
  claim.expect(Status::kReproduced);
}

TEST(Paper, ExtendedMetaPolicyIsNoWorseThanItsBestMember) {
  // Five fully heterogeneous platforms, five slaves, 400 tasks at load 0.9
  // (seed 2006), under bursty arrivals and under churn. The members are the
  // five rank:linear simplex vertices plus the hedge's stressed-regime
  // blend. Their mean makespans are fitted into one rank:linear blend (the
  // `msol_run fit` pipeline), and the better of that fitted spec and the
  // hedge is set against the best member. The member and meta campaigns of
  // a regime run on the same instances: run_campaign's draws do not depend
  // on the algorithm list.
  const std::vector<std::string> members = {
      "rank:completion", "rank:comm",  "rank:comp",
      "rank:queue",      "rank:ready", "rank:linear:0:0.2:0:0.1:0.7"};
  const std::string hedge =
      "hedge:rank:ready;rank:linear:0:0.2:0:0.1:0.7+window:12+hyst:2";
  experiments::CampaignConfig base;
  base.num_platforms = 5;
  base.num_tasks = 400;
  experiments::CampaignConfig bursty = base;
  bursty.arrival = experiments::ArrivalProcess::kBursty;
  experiments::CampaignConfig churn = base;
  churn.avail = platform::AvailabilityModel::kChurn;
  churn.mtbf_tasks = 40.0;
  churn.outage_frac = 0.15;
  const std::vector<std::pair<std::string, experiments::CampaignConfig>>
      regimes = {{"bursty", bursty}, {"churn", churn}};

  Claim claim("Extended: a meta policy is no worse than the best static "
              "member it is built from");
  util::Table table({"regime", "best-member", "best-makespan",
                     "fitted-makespan", "hedge-makespan"});
  for (auto [label, config] : regimes) {
    config.algorithms = members;
    const CampaignResult member_runs = experiments::run_campaign(config);
    std::vector<experiments::FitSample> samples;
    const AlgorithmResult* best = nullptr;
    for (const AlgorithmResult& a : member_runs.algorithms) {
      samples.push_back(
          {label, experiments::feature_weights_for(a.spec), a.makespan.mean});
      if (best == nullptr || a.makespan.mean < best->makespan.mean) best = &a;
    }
    const std::vector<experiments::FitResult> fits =
        experiments::fit_linear_weights(samples);
    ASSERT_EQ(fits.size(), 1u);

    config.algorithms = {fits.front().spec, hedge};
    const CampaignResult meta_runs = experiments::run_campaign(config);
    const double fitted = meta_runs.algorithms[0].makespan.mean;
    const double hedged = meta_runs.algorithms[1].makespan.mean;
    claim.at_most(label + " min(fitted, hedge) / best member makespan",
                  std::min(fitted, hedged) / best->makespan.mean, 1.0);
    table.add_row({label, best->name, util::fmt(best->makespan.mean),
                   util::fmt(fitted), util::fmt(hedged)});
  }
  claim.expect(Status::kReproduced);
  std::cout << table.to_string();
}

TEST(Paper, Table1BoundsSurviveRandomization) {
  // Table 1 binds deterministic algorithms only: RLS (list scheduling with
  // randomized near-tie breaking, threshold 0.15) plays each theorem's
  // adversary over seeds 0..199, and its mean ratio is set against the bound.
  Claim claim("Table 1's bounds survive randomization");
  util::Table table({"thm", "objective", "bound", "LS-ratio", "RLS-mean",
                     "RLS-min", "RLS-max"});
  for (const auto& adversary : theory::all_theorem_adversaries()) {
    const theory::TheoremInfo& info = adversary->info();
    const auto ls = algorithms::make_scheduler("LS");
    const double ls_ratio = adversary->run(*ls).ratio;
    std::vector<double> ratios;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      const auto rls = algorithms::make_scheduler("RLS+eps:0.15", 1000, seed);
      ratios.push_back(adversary->run(*rls).ratio);
    }
    const util::Summary rls = util::summarize(ratios);
    claim.at_most("Thm " + std::to_string(info.number) +
                      " bound vs RLS mean ratio",
                  info.bound, rls.mean);
    table.add_row({std::to_string(info.number), to_string(info.objective),
                   util::fmt(info.bound), util::fmt(ls_ratio),
                   util::fmt(rls.mean), util::fmt(rls.min),
                   util::fmt(rls.max)});
  }
  claim.expect(Status::kReproduced);
  std::cout << table.to_string();
}

TEST(Paper, HillClimbingRediscoversEachTable1Bound) {
  // Hill-climb 4-task instances (3 restarts x 800 steps, seed 2006) against
  // each heuristic in each Table 1 row; the worst ratio found should reach
  // the row's bound, as the proof's hand-built instance does.
  theory::SearchConfig config;
  config.iterations = 800;
  config.restarts = 3;
  config.num_tasks = 4;
  config.seed = 2006;
  Claim claim("Hill-climbing rediscovers each Table 1 bound");
  for (const theory::TheoremInfo& info : theory::table1_info()) {
    config.platform_class = info.platform_class;
    config.objective = info.objective;
    config.num_slaves =
        info.platform_class == platform::PlatformClass::kFullyHeterogeneous ? 3
                                                                            : 2;
    for (const char* name :
         {"SRPT", "LS", "RR", "RRC", "RRP", "MINREADY", "WRR"}) {
      const auto scheduler = algorithms::make_scheduler(name);
      claim.at_most(to_string(info.platform_class) + " " +
                        to_string(info.objective) + " bound vs " + name +
                        " worst ratio found",
                    info.bound,
                    theory::adversarial_search(*scheduler, config).ratio);
    }
  }
  claim.expect(Status::kReproduced);
}

TEST(Paper, SomePaperHeuristicMeetsEachTable1BoundOnSmallInstances) {
  // The paper's open question, "which of these bounds can be met", asked of
  // its seven heuristics: 200 random instances per class (6 Poisson tasks
  // at rate 2 / min_comp on 3 slaves, seed 2006, lookahead 6), each
  // heuristic's worst ratio to the exhaustive optimum, and the best of
  // those seven set against the bound.
  const int tasks = 6;
  const std::vector<std::string> names = algorithms::paper_algorithm_names();
  util::Rng rng(2006);
  platform::PlatformGenerator gen;
  Claim claim("Some paper heuristic meets each Table 1 bound on small "
              "random instances");
  std::vector<std::string> header = {"platform", "objective", "table1-bound"};
  header.insert(header.end(), names.begin(), names.end());
  util::Table table(std::move(header));
  for (platform::PlatformClass cls :
       {platform::PlatformClass::kCommHomogeneous,
        platform::PlatformClass::kCompHomogeneous,
        platform::PlatformClass::kFullyHeterogeneous}) {
    // worst[algorithm][objective index in core::all_objectives()]
    std::vector<std::vector<double>> worst(
        names.size(), std::vector<double>(core::all_objectives().size()));
    for (int rep = 0; rep < 200; ++rep) {
      util::Rng rep_rng = rng.fork();
      const platform::Platform plat = gen.generate(cls, 3, rep_rng);
      const core::Workload work =
          core::Workload::poisson(tasks, 2.0 / plat.min_comp(), rep_rng);
      const offline::OptimalTriple opt =
          offline::solve_optimal_all(plat, work);
      for (std::size_t a = 0; a < names.size(); ++a) {
        const auto scheduler = algorithms::make_scheduler(names[a], tasks);
        const core::Schedule s = core::simulate(plat, work, *scheduler);
        core::validate_or_throw(plat, work, s);
        for (std::size_t o = 0; o < core::all_objectives().size(); ++o) {
          const core::Objective obj = core::all_objectives()[o];
          worst[a][o] = std::max(worst[a][o], s.objective(obj) / opt.get(obj));
        }
      }
    }
    for (std::size_t o = 0; o < core::all_objectives().size(); ++o) {
      const core::Objective obj = core::all_objectives()[o];
      double bound = 0.0;
      for (const theory::TheoremInfo& info : theory::table1_info()) {
        if (info.platform_class == cls && info.objective == obj) {
          bound = info.bound;
        }
      }
      std::vector<std::string> row = {to_string(cls), to_string(obj),
                                      util::fmt(bound)};
      std::size_t best = 0;
      for (std::size_t a = 0; a < names.size(); ++a) {
        row.push_back(util::fmt(worst[a][o]));
        if (worst[a][o] < worst[best][o]) best = a;
      }
      claim.at_most(to_string(cls) + " " + to_string(obj) + " " +
                        names[best] + " worst ratio vs bound",
                    worst[best][o], bound);
      table.add_row(std::move(row));
    }
  }
  claim.expect(Status::kNotReproduced);
  std::cout << table.to_string();
}

}  // namespace
}  // namespace msol
