#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "core/rank_kernel.hpp"

namespace msol::core {

/// The completion probe of each slave in `ids`, written out one slave at a
/// time and independently of the rank kernel: send end, the max with the
/// busy-until clamped to now, then the compute time, multiplied and then
/// (when the view has a speed array) divided by the speed; offline slaves
/// probe as infinity. Every EngineView probe is the kernel, so this loop is
/// the scalar reference the kernel suites check it against bit for bit.
inline std::vector<Time> reference_probes(const SlaveStateView& v, Time now,
                                          Time send_start, double cf,
                                          double pf,
                                          const std::vector<SlaveId>& ids) {
  std::vector<Time> out;
  out.reserve(ids.size());
  for (const SlaveId j : ids) {
    if (v.online != nullptr && v.online[j] == 0) {
      out.push_back(std::numeric_limits<Time>::infinity());
      continue;
    }
    const Time send_end = send_start + v.comm[j] * cf;
    const Time comp_start = std::max(send_end, std::max(now, v.ready[j]));
    Time compute = v.comp[j] * pf;
    if (v.speed != nullptr) compute /= v.speed[j];
    out.push_back(comp_start + compute);
  }
  return out;
}

}  // namespace msol::core
