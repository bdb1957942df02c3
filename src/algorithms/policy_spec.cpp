#include "algorithms/policy_spec.hpp"

#include <stdexcept>
#include <type_traits>
#include <vector>

#include "util/parse.hpp"
#include "util/table.hpp"

namespace msol::algorithms {

bool operator==(const PolicySpec& a, const PolicySpec& b) {
  return a.filter == b.filter && a.throttle_k == b.throttle_k &&
         a.quota_slack == b.quota_slack && a.ranker == b.ranker &&
         a.lookahead == b.lookahead && a.linear_w == b.linear_w &&
         a.tie == b.tie && a.eps == b.eps &&
         a.seed == b.seed && a.gate == b.gate && a.batch_n == b.batch_n &&
         a.pace_dt == b.pace_dt;
}

namespace {

/// Where in the spec string the clause being parsed sits, so errors can
/// point at the offending clause and character offset rather than only the
/// whole spec.
struct ClauseCtx {
  const std::string& text;    ///< the full spec string
  const std::string& clause;  ///< the clause being parsed
  std::size_t offset;         ///< clause's character offset within text
};

[[noreturn]] void fail(const ClauseCtx& ctx, const std::string& why) {
  throw std::invalid_argument("policy spec '" + ctx.text + "': clause '" +
                              ctx.clause + "' (offset " +
                              std::to_string(ctx.offset) + "): " + why);
}

/// Spec-level errors with no single offending clause (e.g. an empty spec).
[[noreturn]] void fail(const std::string& text, const std::string& why) {
  throw std::invalid_argument("policy spec '" + text + "': " + why);
}

/// The whole-token parse (util/parse.hpp) of `token`, or a clause error:
/// "2junk" and "" never read as a silent prefix (the legacy LS-K stoi bug
/// this layer replaces).
template <typename T>
T number(std::optional<T> (*parse)(const std::string&),
         const std::string& token, const ClauseCtx& ctx) {
  if (const std::optional<T> v = parse(token)) return *v;
  fail(ctx, (std::is_integral_v<T> ? "bad integer '" : "bad number '") +
                token + "'");
}

/// A plan lookahead K: an int in [0, kMaxLookahead], or a clause error.
int lookahead_value(const std::string& token, const ClauseCtx& ctx) {
  const int k = number(util::parse_int, token, ctx);
  if (k >= 0 && k <= kMaxLookahead) return k;
  fail(ctx, "lookahead must be in [0, " + std::to_string(kMaxLookahead) + "]");
}

/// fmt_exact without its exponent's '+' ("7.1e+02" -> "7.1e02"): '+'
/// separates clauses, so a serialized number must not contain one.
std::string fmt_number(double v) {
  std::string out = util::fmt_exact(v);
  const std::size_t plus = out.find("e+");
  if (plus != std::string::npos) out.erase(plus + 1, 1);
  return out;
}

struct ClauseToken {
  std::string text;
  std::size_t offset = 0;
};

/// '+'-split that remembers each clause's character offset in the spec.
std::vector<ClauseToken> split_clauses(const std::string& s) {
  std::vector<ClauseToken> out;
  std::size_t offset = 0;
  for (std::string& clause : util::split(s, '+')) {
    const std::size_t next = offset + clause.size() + 1;
    out.push_back({std::move(clause), offset});
    offset = next;
  }
  return out;
}

/// Expands a legacy registry name into its canonical components, or
/// returns false if `token` is not one. `lookahead`/`seed` are the
/// make_scheduler() defaults the monolithic classes received.
bool expand_legacy_name(const std::string& token, int lookahead,
                        std::uint64_t seed, const ClauseCtx& ctx,
                        PolicySpec& spec) {
  spec = PolicySpec{};
  spec.lookahead = lookahead;
  spec.seed = seed;
  if (token == "SRPT") {
    spec.filter = FilterKind::kFree;
    spec.ranker = RankerKind::kComp;
    spec.tie = TieKind::kFastLink;
  } else if (token == "LS") {
    spec.ranker = RankerKind::kCompletion;
  } else if (token == "RR") {
    spec.ranker = RankerKind::kCyclicCommComp;
  } else if (token == "RRC") {
    spec.ranker = RankerKind::kCyclicComm;
  } else if (token == "RRP") {
    spec.ranker = RankerKind::kCyclicComp;
  } else if (token == "SLJF") {
    spec.ranker = RankerKind::kPlanSljf;
  } else if (token == "SLJFWC") {
    spec.ranker = RankerKind::kPlanSljfwc;
  } else if (token == "RANDOM") {
    spec.ranker = RankerKind::kConst;
    spec.tie = TieKind::kRng;
  } else if (token == "MINREADY") {
    spec.ranker = RankerKind::kReady;
  } else if (token == "WRR") {
    spec.ranker = RankerKind::kWrr;
  } else if (token == "RLS") {
    spec.ranker = RankerKind::kCompletion;
    spec.tie = TieKind::kRng;
    spec.eps = 0.15;
  } else if (token.rfind("LS-K", 0) == 0) {
    const int k = number(util::parse_int, token.substr(4), ctx);
    if (k < 1) fail(ctx, "LS-K cap must be >= 1");
    spec.filter = FilterKind::kThrottle;
    spec.throttle_k = k;
    spec.ranker = RankerKind::kCompletion;
  } else {
    return false;
  }
  return true;
}

void apply_filter_clause(const std::vector<std::string>& parts,
                         const ClauseCtx& ctx, PolicySpec& spec) {
  const std::string& which = parts[1];
  if (which == "all" || which == "free") {
    if (parts.size() != 2) fail(ctx, "filter:" + which + " takes no args");
    spec.filter = which == "all" ? FilterKind::kAll : FilterKind::kFree;
  } else if (which == "throttle") {
    if (parts.size() != 3) fail(ctx, "filter:throttle needs a cap");
    const int k = number(util::parse_int, parts[2], ctx);
    if (k < 1) fail(ctx, "throttle cap must be >= 1");
    spec.filter = FilterKind::kThrottle;
    spec.throttle_k = k;
  } else if (which == "quota") {
    if (parts.size() > 3) fail(ctx, "filter:quota takes at most one arg");
    spec.filter = FilterKind::kQuota;
    if (parts.size() == 3) {
      const double slack = number(util::parse_double, parts[2], ctx);
      if (slack <= 0.0) fail(ctx, "quota slack must be > 0");
      spec.quota_slack = slack;
    }
  } else {
    fail(ctx, "unknown filter '" + which + "'");
  }
}

void apply_rank_clause(const std::vector<std::string>& parts,
                       const ClauseCtx& ctx, PolicySpec& spec) {
  const std::string& which = parts[1];
  if (which == "cyclic") {
    if (parts.size() != 3) fail(ctx, "rank:cyclic needs an ordering");
    if (parts[2] == "commcomp") {
      spec.ranker = RankerKind::kCyclicCommComp;
    } else if (parts[2] == "comm") {
      spec.ranker = RankerKind::kCyclicComm;
    } else if (parts[2] == "comp") {
      spec.ranker = RankerKind::kCyclicComp;
    } else {
      fail(ctx, "unknown cyclic ordering '" + parts[2] + "'");
    }
    return;
  }
  if (which == "plan") {
    if (parts.size() != 3 && parts.size() != 4) {
      fail(ctx, "rank:plan needs a planner (and optional lookahead)");
    }
    if (parts[2] == "sljf") {
      spec.ranker = RankerKind::kPlanSljf;
    } else if (parts[2] == "sljfwc") {
      spec.ranker = RankerKind::kPlanSljfwc;
    } else {
      fail(ctx, "unknown planner '" + parts[2] + "'");
    }
    if (parts.size() == 4) spec.lookahead = lookahead_value(parts[3], ctx);
    return;
  }
  if (which == "linear") {
    if (parts.size() != 2 + static_cast<std::size_t>(kLinearFeatureCount)) {
      fail(ctx, "rank:linear needs exactly " +
                    std::to_string(kLinearFeatureCount) +
                    " weights (completion, comm, comp, queue, ready)");
    }
    spec.ranker = RankerKind::kLinear;
    spec.linear_w.clear();
    for (std::size_t i = 2; i < parts.size(); ++i) {
      spec.linear_w.push_back(number(util::parse_double, parts[i], ctx));
    }
    return;
  }
  if (parts.size() != 2) fail(ctx, "rank:" + which + " takes no args");
  if (which == "completion") {
    spec.ranker = RankerKind::kCompletion;
  } else if (which == "ready") {
    spec.ranker = RankerKind::kReady;
  } else if (which == "comp") {
    spec.ranker = RankerKind::kComp;
  } else if (which == "comm") {
    spec.ranker = RankerKind::kComm;
  } else if (which == "commcomp") {
    spec.ranker = RankerKind::kCommComp;
  } else if (which == "queue") {
    spec.ranker = RankerKind::kQueue;
  } else if (which == "const") {
    spec.ranker = RankerKind::kConst;
  } else if (which == "wrr") {
    spec.ranker = RankerKind::kWrr;
  } else {
    fail(ctx, "unknown ranker '" + which + "'");
  }
}

void apply_tie_clause(const std::vector<std::string>& parts,
                      const ClauseCtx& ctx, PolicySpec& spec) {
  const std::string& which = parts[1];
  if (which == "index" || which == "fastlink") {
    if (parts.size() != 2) fail(ctx, "tie:" + which + " takes no args");
    spec.tie = which == "index" ? TieKind::kIndex : TieKind::kFastLink;
  } else if (which == "rng") {
    if (parts.size() > 3) fail(ctx, "tie:rng takes at most a seed");
    spec.tie = TieKind::kRng;
    if (parts.size() == 3) {
      spec.seed = number(util::parse_uint64, parts[2], ctx);
    }
  } else {
    fail(ctx, "unknown tie-break '" + which + "'");
  }
}

void apply_gate_clause(const std::vector<std::string>& parts,
                       const ClauseCtx& ctx, PolicySpec& spec) {
  const std::string& which = parts[1];
  if (which == "always") {
    if (parts.size() != 2) fail(ctx, "gate:always takes no args");
    spec.gate = GateKind::kAlways;
  } else if (which == "batch") {
    if (parts.size() != 3) fail(ctx, "gate:batch needs a threshold");
    const int n = number(util::parse_int, parts[2], ctx);
    if (n < 1) fail(ctx, "batch threshold must be >= 1");
    spec.gate = GateKind::kBatch;
    spec.batch_n = n;
  } else if (which == "pace") {
    if (parts.size() != 3) fail(ctx, "gate:pace needs a minimum gap");
    const double dt = number(util::parse_double, parts[2], ctx);
    if (dt <= 0.0) fail(ctx, "pace gap must be > 0");
    spec.gate = GateKind::kPace;
    spec.pace_dt = dt;
  } else {
    fail(ctx, "unknown gate '" + which + "'");
  }
}

}  // namespace

PolicySpec parse_policy_spec(const std::string& text, int lookahead,
                             std::uint64_t seed) {
  if (text.empty()) fail(text, "empty spec");
  PolicySpec spec;
  spec.lookahead = lookahead;
  spec.seed = seed;

  const std::vector<ClauseToken> clauses = split_clauses(text);
  std::size_t first = 0;
  {
    const ClauseCtx ctx{text, clauses[0].text, clauses[0].offset};
    if (expand_legacy_name(clauses[0].text, lookahead, seed, ctx, spec)) {
      first = 1;
    }
  }
  for (std::size_t i = first; i < clauses.size(); ++i) {
    const ClauseCtx ctx{text, clauses[i].text, clauses[i].offset};
    const std::vector<std::string> parts = util::split(clauses[i].text, ':');
    const std::string& key = parts[0];
    if (parts.size() < 2) {
      fail(ctx, "expected key:value clause" +
                    std::string(i == 0 ? " (not a registry name either)" : ""));
    }
    if (key == "filter") {
      apply_filter_clause(parts, ctx, spec);
    } else if (key == "rank") {
      apply_rank_clause(parts, ctx, spec);
    } else if (key == "tie") {
      apply_tie_clause(parts, ctx, spec);
    } else if (key == "gate") {
      apply_gate_clause(parts, ctx, spec);
    } else if (key == "throttle" && parts.size() == 2) {
      apply_filter_clause({"filter", "throttle", parts[1]}, ctx, spec);
    } else if (key == "quota" && parts.size() == 2) {
      apply_filter_clause({"filter", "quota", parts[1]}, ctx, spec);
    } else if (key == "lookahead" && parts.size() == 2) {
      spec.lookahead = lookahead_value(parts[1], ctx);
    } else if (key == "eps" && parts.size() == 2) {
      const double theta = number(util::parse_double, parts[1], ctx);
      if (theta < 0.0) fail(ctx, "eps must be >= 0");
      spec.eps = theta;
    } else if (key == "seed" && parts.size() == 2) {
      spec.seed = number(util::parse_uint64, parts[1], ctx);
    } else if (key == "batch" && parts.size() == 2) {
      apply_gate_clause({"gate", "batch", parts[1]}, ctx, spec);
    } else if (key == "pace" && parts.size() == 2) {
      apply_gate_clause({"gate", "pace", parts[1]}, ctx, spec);
    } else {
      fail(ctx, "unknown clause");
    }
  }
  // Normalize parameters a clause made inert ("LS-K3+filter:all" leaves a
  // stale throttle cap behind): otherwise equal compositions must compare
  // equal and serialize identically.
  const PolicySpec defaults;
  if (spec.filter != FilterKind::kThrottle) spec.throttle_k = defaults.throttle_k;
  if (spec.filter != FilterKind::kQuota) spec.quota_slack = defaults.quota_slack;
  if (spec.gate != GateKind::kBatch) spec.batch_n = defaults.batch_n;
  if (spec.gate != GateKind::kPace) spec.pace_dt = defaults.pace_dt;
  if (spec.tie != TieKind::kRng) spec.seed = defaults.seed;
  if (spec.ranker != RankerKind::kPlanSljf &&
      spec.ranker != RankerKind::kPlanSljfwc) {
    spec.lookahead = defaults.lookahead;
  }
  if (spec.ranker != RankerKind::kLinear) spec.linear_w.clear();
  return spec;
}

std::string to_string(const PolicySpec& spec) {
  std::string out = "filter:";
  switch (spec.filter) {
    case FilterKind::kAll: out += "all"; break;
    case FilterKind::kFree: out += "free"; break;
    case FilterKind::kThrottle:
      out += "throttle:" + std::to_string(spec.throttle_k);
      break;
    case FilterKind::kQuota:
      out += "quota:" + fmt_number(spec.quota_slack);
      break;
  }
  out += "+rank:";
  switch (spec.ranker) {
    case RankerKind::kCompletion: out += "completion"; break;
    case RankerKind::kReady: out += "ready"; break;
    case RankerKind::kComp: out += "comp"; break;
    case RankerKind::kComm: out += "comm"; break;
    case RankerKind::kCommComp: out += "commcomp"; break;
    case RankerKind::kQueue: out += "queue"; break;
    case RankerKind::kConst: out += "const"; break;
    case RankerKind::kWrr: out += "wrr"; break;
    case RankerKind::kCyclicCommComp: out += "cyclic:commcomp"; break;
    case RankerKind::kCyclicComm: out += "cyclic:comm"; break;
    case RankerKind::kCyclicComp: out += "cyclic:comp"; break;
    case RankerKind::kPlanSljf:
      out += "plan:sljf:" + std::to_string(spec.lookahead);
      break;
    case RankerKind::kPlanSljfwc:
      out += "plan:sljfwc:" + std::to_string(spec.lookahead);
      break;
    case RankerKind::kLinear:
      out += "linear";
      for (double w : spec.linear_w) out += ':' + fmt_number(w);
      break;
  }
  if (spec.eps != 0.0) out += "+eps:" + fmt_number(spec.eps);
  out += "+tie:";
  switch (spec.tie) {
    case TieKind::kIndex: out += "index"; break;
    case TieKind::kFastLink: out += "fastlink"; break;
    case TieKind::kRng: out += "rng:" + std::to_string(spec.seed); break;
  }
  out += "+gate:";
  switch (spec.gate) {
    case GateKind::kAlways: out += "always"; break;
    case GateKind::kBatch: out += "batch:" + std::to_string(spec.batch_n); break;
    case GateKind::kPace: out += "pace:" + fmt_number(spec.pace_dt); break;
  }
  return out;
}

std::string canonical_name(const PolicySpec& spec) {
  // Seeds never change *what* a legacy policy is (the monoliths kept their
  // name under any seed), and SLJF at any lookahead is still SLJF, so the
  // match compares everything else against the name's canonical expansion.
  const auto matches = [&spec](const PolicySpec& proto) {
    PolicySpec a = spec, b = proto;
    a.seed = b.seed = 0;
    a.lookahead = b.lookahead = 0;
    return a == b;
  };
  for (const char* name :
       {"SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC", "RANDOM",
        "MINREADY", "WRR", "RLS"}) {
    const std::string token = name;
    const ClauseCtx ctx{token, token, 0};
    PolicySpec proto;
    expand_legacy_name(token, 0, 0, ctx, proto);
    if (matches(proto)) return name;
  }
  if (spec.filter == FilterKind::kThrottle) {
    const std::string token = "LS-K" + std::to_string(spec.throttle_k);
    const ClauseCtx ctx{token, token, 0};
    PolicySpec proto;
    expand_legacy_name(token, 0, 0, ctx, proto);
    if (matches(proto)) return token;
  }
  return "";
}

}  // namespace msol::algorithms
