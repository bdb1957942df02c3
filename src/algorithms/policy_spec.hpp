#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace msol::algorithms {

/// The four orthogonal component axes a scheduling policy is composed
/// from (see policy.hpp for the runtime interfaces):
///
///   candidate filter  — which slaves may receive the front task
///   ranker            — how the surviving candidates are scored
///   tie-break         — who wins among (near-)tied scores
///   commit gate       — whether the winning assignment is committed now,
///                       deferred, or paced with a WaitUntil
///
/// A PolicySpec is the declarative description of one composition; it is
/// what the spec mini-language below parses into and what ComposedPolicy
/// is built from. All 11 legacy registry names are canonical points in
/// this space (see canonical_name()).
enum class FilterKind {
  kAll,       ///< every available slave (the LS/RR/… default)
  kFree,      ///< available slaves with no committed work (SRPT's rule)
  kThrottle,  ///< available slaves with < k uncompleted committed tasks
  kQuota,     ///< weighted quota: committed share may not outrun the
              ///< throughput-LP share by more than `quota_slack` tasks
};

enum class RankerKind {
  kCompletion,    ///< estimated completion time (list scheduling)
  kReady,         ///< slave ready-time (the intro's MINREADY rule)
  kComp,          ///< static p_j (SRPT's "fastest")
  kComm,          ///< static c_j (cheapest link)
  kCommComp,      ///< static c_j + p_j
  kQueue,         ///< committed-but-uncompleted task count (least loaded)
  kConst,         ///< all-equal scores (pure tie-break, e.g. RANDOM)
  kWrr,           ///< stride scheduling on the throughput-LP shares
  kCyclicCommComp,///< RR's cyclic cursor over ascending c_j + p_j
  kCyclicComm,    ///< RRC's cyclic cursor over ascending c_j
  kCyclicComp,    ///< RRP's cyclic cursor over ascending p_j
  kPlanSljf,      ///< SLJF plan for the first `lookahead` sends, then LS
  kPlanSljfwc,    ///< comm-aware SLJFWC plan, then LS
  kLinear,        ///< learned linear blend of the per-candidate features
                  ///< (completion, comm, comp, queue, ready), weights from
                  ///< rank:linear:<w0>:...:<w4> (see experiments/spec_fit)
};

/// Number of per-candidate features the linear ranker blends, in weight
/// order: completion_if_assigned, c_j, p_j, tasks_in_system, slave_ready_at.
inline constexpr int kLinearFeatureCount = 5;

enum class TieKind {
  kIndex,     ///< lowest slave id (scan order) wins
  kFastLink,  ///< smaller c_j wins, then lowest id
  kRng,       ///< uniform draw among the (near-)tied set, seeded
};

enum class GateKind {
  kAlways,  ///< commit every proposal immediately
  kBatch,   ///< defer until >= batch_n tasks are pending (flushes once
            ///< every remaining task has been released, so it cannot
            ///< deadlock the engine)
  kPace,    ///< WaitUntil pacing: >= pace_dt between consecutive sends
};

/// Largest plan lookahead K that specs, grids and plan rankers accept: a
/// plan ranker allocates O(K) at its first decision (committed grids: 1000).
inline constexpr int kMaxLookahead = 1000000;

struct PolicySpec {
  FilterKind filter = FilterKind::kAll;
  int throttle_k = 2;        ///< FilterKind::kThrottle cap (>= 1)
  double quota_slack = 1.0;  ///< FilterKind::kQuota slack tasks (> 0)

  RankerKind ranker = RankerKind::kCompletion;
  int lookahead = 1000;      ///< plan rankers' planned-task count K (<= 1e6)
  /// RankerKind::kLinear feature weights (exactly kLinearFeatureCount,
  /// finite; empty for every other ranker).
  std::vector<double> linear_w;

  TieKind tie = TieKind::kIndex;
  /// Near-tie band width: candidates scoring within a (1 + eps) factor of
  /// the best are treated as tied. 0 (the default) keeps the legacy exact
  /// scan; > 0 switches selection to the banded epsilon-greedy mode (RLS
  /// uses eps = 0.15 with TieKind::kRng).
  double eps = 0.0;
  std::uint64_t seed = 42;   ///< TieKind::kRng stream seed

  GateKind gate = GateKind::kAlways;
  int batch_n = 2;           ///< GateKind::kBatch threshold (>= 1)
  double pace_dt = 0.0;      ///< GateKind::kPace minimum send gap (> 0)

  friend bool operator==(const PolicySpec& a, const PolicySpec& b);
  friend bool operator!=(const PolicySpec& a, const PolicySpec& b) {
    return !(a == b);
  }
};

/// Parses the policy-spec mini-language. A spec is '+'-separated clauses;
/// the first clause may be a legacy registry name, which expands to its
/// canonical components, and later clauses override individual components
/// or parameters:
///
///   LS                                  — a legacy name alone
///   SRPT+throttle:2                     — SRPT's rank, throttled filter
///   rank:completion+eps:0.15+tie:rng    — RLS with the default seed
///   LS+gate:batch:5                     — LS that batches sends
///
/// Component clauses:
///   filter:all | filter:free | filter:throttle:<k> | filter:quota:<slack>
///   rank:completion|ready|comp|comm|commcomp|queue|const|wrr
///   rank:cyclic:<comm|comp|commcomp> | rank:plan:<sljf|sljfwc>[:<K>]
///   rank:linear:<w0>:<w1>:<w2>:<w3>:<w4>
///   tie:index | tie:fastlink | tie:rng[:<seed>]
///   gate:always | gate:batch:<n> | gate:pace:<dt>
/// Parameter sugar:
///   throttle:<k> quota[:<slack>] lookahead:<K> eps:<theta> seed:<s>
///   batch:<n> pace:<dt>
///
/// `lookahead` and `seed` supply defaults for specs that do not set them
/// explicitly (they are the legacy make_scheduler() arguments). Numbers
/// are parsed strictly: trailing junk ("throttle:2x", "LS-K2junk") throws
/// std::invalid_argument, as do unknown clauses and out-of-range values;
/// error messages name the offending clause and its character offset.
PolicySpec parse_policy_spec(const std::string& text, int lookahead = 1000,
                             std::uint64_t seed = 42);

/// Serializes to the canonical clause order
/// `filter:…+rank:…[+eps:…]+tie:…+gate:…` with every component explicit.
/// Canonical strings are fixed points: parse(to_string(s)) == s and
/// to_string(parse(to_string(parse(x)))) == to_string(parse(x)) for every
/// parseable x.
std::string to_string(const PolicySpec& spec);

/// The legacy registry name this spec is the canonical decomposition of
/// ("LS", "SRPT", "LS-K3", …), or "" if it is not one. Rng seeds are
/// ignored for the match (RANDOM and RLS keep their name under any seed,
/// as the monolithic classes did), as is the plan lookahead (SLJF at any
/// K is still SLJF).
std::string canonical_name(const PolicySpec& spec);

}  // namespace msol::algorithms
