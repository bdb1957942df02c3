#pragma once

namespace msol::core {

/// Simulated time in (virtual) seconds. The paper's instances use values
/// like sqrt(2) and (2+sqrt(7))/3, so time is continuous; comparisons that
/// must tolerate floating-point noise use kTimeEps.
using Time = double;

/// Tasks are numbered in release order starting at 0 (the paper's 1,2,...).
using TaskId = int;

/// Slave processors are numbered 0..m-1 (the paper's P_1..P_m).
using SlaveId = int;

inline constexpr Time kTimeEps = 1e-9;

}  // namespace msol::core
