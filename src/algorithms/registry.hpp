#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hpp"

namespace msol::algorithms {

/// Instantiates a scheduler from a paper name — "SRPT", "LS", "RR", "RRC",
/// "RRP", "SLJF", "SLJFWC", "RANDOM" — a library addition — "WRR",
/// "MINREADY", "RLS", "LS-K<k>" — or any policy-spec string in the
/// composable mini-language of policy_spec.hpp (e.g. "SRPT+throttle:2" or
/// "rank:completion+eps:0.15+tie:rng"). Every name routes through
/// ComposedPolicy; the legacy names are canonical compositions and stay
/// bit-identical to their historical monolithic classes (pinned by the
/// golden traces and the differential suite). `lookahead` configures the
/// SLJF variants, `seed` the rng tie-breaks (RANDOM/RLS); explicit spec
/// clauses override both. Throws std::invalid_argument on unknown names
/// and malformed specs (including "LS-K2junk" and k <= 0).
///
/// Meta specs route to the meta layer instead: "portfolio:<spec>;..."
/// forward-simulates each member at every decision point and commits the
/// best member's choice, "hedge:<specA>;<specB>" switches between its two
/// members on an online regime detector (see algorithms/meta/).
std::unique_ptr<core::OnlineScheduler> make_scheduler(
    const std::string& name, int lookahead = 1000, std::uint64_t seed = 42);

/// Canonical component decomposition of a registry name, spec string, or
/// meta spec, serialized (what --list-algorithms prints and sinks echo).
std::string canonical_spec(const std::string& name, int lookahead = 1000,
                           std::uint64_t seed = 42);

/// The seven algorithms of the paper's Section 4, in figure order.
std::vector<std::string> paper_algorithm_names();

/// The paper's seven plus this library's additions: "WRR" (throughput-
/// optimal weighted round robin), "MINREADY" (the intro's homogeneous-
/// optimal rule), and the "RANDOM" floor baseline.
std::vector<std::string> extended_algorithm_names();

/// Every named registry entry for listings: the extended names plus "RLS"
/// and a representative "LS-K2" (any "LS-K<k>" parses).
std::vector<std::string> listed_algorithm_names();

}  // namespace msol::algorithms
