#include "core/rank_kernel.hpp"

#include <limits>

namespace msol::core {

namespace {

/// std::max(a, b) spelled so the dependency chain is explicit; identical
/// result (ties pick `a`, like std::max picks its first argument).
inline Time tmax(Time a, Time b) { return a < b ? b : a; }

/// The engine's completion probe of slave j, operation for operation: send
/// end, the max with busy-until, then the compute time, multiplied and then
/// (on a platform with availability, `speed` set) divided by speed[j].
inline Time probe(Time now, Time send_start, double comm_factor,
                  double comp_factor, Time comm, Time comp, Time ready,
                  const double* speed, SlaveId j) {
  const Time send_end = send_start + comm * comm_factor;
  const Time comp_start = tmax(send_end, tmax(now, ready));
  Time compute = comp * comp_factor;
  if (speed != nullptr) compute /= speed[j];
  return comp_start + compute;
}

/// Slave indices of the two kernel forms: every slave, or a candidate list.
struct EverySlave {
  SlaveId operator()(int i) const { return i; }
};
struct Candidates {
  const SlaveId* ids;
  SlaveId operator()(int i) const { return ids[i]; }
};

/// out[i] = the probe of slave `slave(i)`, +infinity when it is offline.
///
/// The only kernel loop: MSOL_RANK_KERNEL_VARIANT compiles the batch form
/// again under target("avx2") and target("avx512f"), so every variant runs
/// the probe's operation sequence per lane (the library's -ffp-contract=off
/// keeps the FMA-capable targets from fusing a mul+add). The static loop
/// vectorizes in every compilation; `__restrict` (out overlaps no input) is
/// what lets the compiler build the candidate form's vectors from indexed
/// loads. The availability loop keeps its offline early-out and stays
/// scalar: probing every slave and masking offline ones afterwards measured
/// slower.
template <typename SlaveOf>
__attribute__((always_inline)) inline void probe_body(
    const SlaveStateView& s, Time now, Time send_start, double comm_factor,
    double comp_factor, SlaveOf slave, int n, Time* __restrict out) {
  const Time* __restrict comm = s.comm;
  const Time* __restrict comp = s.comp;
  const Time* __restrict ready = s.ready;
  if (s.online == nullptr && s.speed == nullptr) {
    for (int i = 0; i < n; ++i) {
      const SlaveId j = slave(i);
      out[i] = probe(now, send_start, comm_factor, comp_factor, comm[j],
                     comp[j], ready[j], nullptr, j);
    }
    return;
  }
  const Time inf = std::numeric_limits<Time>::infinity();
  for (int i = 0; i < n; ++i) {
    const SlaveId j = slave(i);
    if (s.online != nullptr && s.online[j] == 0) {
      out[i] = inf;
      continue;
    }
    out[i] = probe(now, send_start, comm_factor, comp_factor, comm[j], comp[j],
                   ready[j], s.speed, j);
  }
}

// The ISA variants need GCC/Clang's function `target` attribute on x86-64.
// Only the batch loop is compiled for AVX2 / AVX-512, behind a
// __builtin_cpu_supports gate; everything else stays at baseline. The
// candidate form has no wider variant: built from indexed scalar loads, its
// AVX2 and AVX-512 vectors ran slower per probe than the baseline loop on
// static views, and on availability views every compilation runs the same
// scalar early-out loop.
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define MSOL_RANK_KERNEL_SIMD 1
#define MSOL_RANK_KERNEL_VARIANT(isa, suffix)                                 \
  __attribute__((target(isa))) void batch_##suffix(                           \
      const SlaveStateView& s, Time now, Time send_start, double cf,          \
      double pf, Time* out) {                                                 \
    probe_body(s, now, send_start, cf, pf, EverySlave{}, s.m, out);           \
  }
MSOL_RANK_KERNEL_VARIANT("avx2", avx2)
MSOL_RANK_KERNEL_VARIANT("avx512f", avx512)
#endif

/// The variant a width runs on this host: kAuto takes the widest ISA the
/// host carries; a pinned ISA the build or host lacks falls back to scalar.
RankKernelWidth resolve(RankKernelWidth width) {
  const bool avx512 = rank_kernel_avx512_available();
  const bool avx2 = rank_kernel_simd_available();
  if (width == RankKernelWidth::kAuto) {
    return avx512 ? RankKernelWidth::kAvx512
                  : avx2 ? RankKernelWidth::kAvx2 : RankKernelWidth::kScalar;
  }
  if ((width == RankKernelWidth::kAvx512 && avx512) ||
      (width == RankKernelWidth::kAvx2 && avx2)) {
    return width;
  }
  return RankKernelWidth::kScalar;
}

}  // namespace

void completion_batch(const SlaveStateView& s, Time now, Time send_start,
                      double comm_factor, double comp_factor, Time* out) {
  probe_body(s, now, send_start, comm_factor, comp_factor, EverySlave{}, s.m,
             out);
}

void completion_gather(const SlaveStateView& s, Time now, Time send_start,
                       double comm_factor, double comp_factor,
                       const SlaveId* ids, int n, Time* out) {
  probe_body(s, now, send_start, comm_factor, comp_factor, Candidates{ids}, n,
             out);
}

#ifdef MSOL_RANK_KERNEL_SIMD
bool rank_kernel_simd_available() {
  return __builtin_cpu_supports("avx2") != 0;
}
bool rank_kernel_avx512_available() {
  return __builtin_cpu_supports("avx512f") != 0;
}
#else
bool rank_kernel_simd_available() { return false; }
bool rank_kernel_avx512_available() { return false; }
#endif

void completion_batch_width(RankKernelWidth width, const SlaveStateView& s,
                            Time now, Time send_start, double comm_factor,
                            double comp_factor, Time* out) {
  switch (resolve(width)) {
#ifdef MSOL_RANK_KERNEL_SIMD
    case RankKernelWidth::kAvx512:
      return batch_avx512(s, now, send_start, comm_factor, comp_factor, out);
    case RankKernelWidth::kAvx2:
      return batch_avx2(s, now, send_start, comm_factor, comp_factor, out);
#endif
    default:
      return completion_batch(s, now, send_start, comm_factor, comp_factor,
                              out);
  }
}

SlaveId rank_best_completion(const SlaveStateView& s, Time now,
                             Time send_start, double comm_factor,
                             double comp_factor) {
  const int m = s.m;
  SlaveId best = -1;
  Time best_completion = 0.0;
  if (s.online == nullptr && s.speed == nullptr) {
    for (int j = 0; j < m; ++j) {
      const Time completion =
          probe(now, send_start, comm_factor, comp_factor, s.comm[j],
                s.comp[j], s.ready[j], nullptr, j);
      if (best < 0 || completion < best_completion - kTimeEps) {
        best = j;
        best_completion = completion;
      }
    }
    return best;
  }
  for (int j = 0; j < m; ++j) {
    // Offline slaves are skipped, not scored infinity: with every slave
    // offline the answer is -1, which an infinity entry would steal.
    if (s.online != nullptr && s.online[j] == 0) continue;
    const Time completion =
        probe(now, send_start, comm_factor, comp_factor, s.comm[j], s.comp[j],
              s.ready[j], s.speed, j);
    if (best < 0 || completion < best_completion - kTimeEps) {
      best = j;
      best_completion = completion;
    }
  }
  return best;
}

}  // namespace msol::core
