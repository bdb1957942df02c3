#pragma once

#include "platform/platform.hpp"
#include "util/rng.hpp"

namespace msol::platform {

/// Parameter ranges of the paper's experimental platforms (Sec 4.2):
/// "five machines Pi with ci between 0.01 s and 1 s, and pi between
///  0.1 s and 8 s".
struct GeneratorRanges {
  core::Time comm_lo = 0.01;
  core::Time comm_hi = 1.0;
  core::Time comp_lo = 0.1;
  core::Time comp_hi = 8.0;
};

/// Draws random platforms of the requested class with the paper's ranges.
///
/// For the homogeneous dimensions a single value is drawn from the range and
/// shared by all slaves, mirroring how the paper forces homogeneity by
/// replaying the calibration matrix a fixed number of times per slave.
class PlatformGenerator {
 public:
  explicit PlatformGenerator(GeneratorRanges ranges = {}) : ranges_(ranges) {}

  Platform generate(PlatformClass cls, int num_slaves, util::Rng& rng) const;

  const GeneratorRanges& ranges() const { return ranges_; }

 private:
  GeneratorRanges ranges_;
};

}  // namespace msol::platform
