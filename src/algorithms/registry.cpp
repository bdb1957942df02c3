#include "algorithms/registry.hpp"

#include "algorithms/meta/meta_policy.hpp"
#include "algorithms/meta/meta_spec.hpp"
#include "algorithms/policy.hpp"
#include "algorithms/policy_spec.hpp"

namespace msol::algorithms {

std::unique_ptr<core::OnlineScheduler> make_scheduler(const std::string& name,
                                                      int lookahead,
                                                      std::uint64_t seed) {
  if (meta::is_meta_spec(name)) {
    return meta::make_meta_policy(meta::parse_meta_spec(name, lookahead, seed));
  }
  return std::make_unique<ComposedPolicy>(
      parse_policy_spec(name, lookahead, seed));
}

std::string canonical_spec(const std::string& name, int lookahead,
                           std::uint64_t seed) {
  if (meta::is_meta_spec(name)) {
    return meta::to_string(meta::parse_meta_spec(name, lookahead, seed));
  }
  return to_string(parse_policy_spec(name, lookahead, seed));
}

std::vector<std::string> paper_algorithm_names() {
  return {"SRPT", "LS", "RR", "RRC", "RRP", "SLJF", "SLJFWC"};
}

std::vector<std::string> extended_algorithm_names() {
  std::vector<std::string> names = paper_algorithm_names();
  names.push_back("WRR");
  names.push_back("MINREADY");
  names.push_back("RANDOM");
  return names;
}

std::vector<std::string> listed_algorithm_names() {
  std::vector<std::string> names = extended_algorithm_names();
  names.push_back("RLS");
  names.push_back("LS-K2");
  return names;
}

}  // namespace msol::algorithms
