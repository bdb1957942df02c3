#include "platform/generator.hpp"

#include <stdexcept>

namespace msol::platform {

Platform PlatformGenerator::generate(PlatformClass cls, int num_slaves,
                                     util::Rng& rng) const {
  if (num_slaves <= 0) {
    throw std::invalid_argument("PlatformGenerator: num_slaves must be > 0");
  }
  const bool comm_homog = cls == PlatformClass::kFullyHomogeneous ||
                          cls == PlatformClass::kCommHomogeneous;
  const bool comp_homog = cls == PlatformClass::kFullyHomogeneous ||
                          cls == PlatformClass::kCompHomogeneous;

  const core::Time shared_c = rng.uniform(ranges_.comm_lo, ranges_.comm_hi);
  const core::Time shared_p = rng.uniform(ranges_.comp_lo, ranges_.comp_hi);

  std::vector<SlaveSpec> slaves;
  slaves.reserve(static_cast<std::size_t>(num_slaves));
  for (int j = 0; j < num_slaves; ++j) {
    SlaveSpec s;
    s.comm = comm_homog ? shared_c : rng.uniform(ranges_.comm_lo, ranges_.comm_hi);
    s.comp = comp_homog ? shared_p : rng.uniform(ranges_.comp_lo, ranges_.comp_hi);
    slaves.push_back(s);
  }
  return Platform(std::move(slaves));
}

}  // namespace msol::platform
