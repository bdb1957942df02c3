#include "core/rank_kernel.hpp"

#include <limits>

namespace msol::core {

namespace {

/// std::max(a, b) spelled so the dependency chain is explicit; identical
/// result (ties pick `a`, like std::max picks its first argument).
inline Time tmax(Time a, Time b) { return a < b ? b : a; }

/// The completion probe of one slave, every view's only one: send end, the
/// max with busy-until, then the compute time, multiplied and then (on a
/// platform with availability, `speed` set) divided by *speed.
inline Time probe(Time now, Time send_start, double comm_factor,
                  double comp_factor, Time comm, Time comp, Time ready,
                  const double* speed) {
  const Time send_end = send_start + comm * comm_factor;
  const Time comp_start = tmax(send_end, tmax(now, ready));
  Time compute = comp * comp_factor;
  if (speed != nullptr) compute /= *speed;
  return comp_start + compute;
}

/// Slave indices of the kernel forms: every slave, a candidate list, or
/// the slaves from `first` on.
struct EverySlave {
  SlaveId operator()(int i) const { return i; }
};
struct Candidates {
  const SlaveId* ids;
  SlaveId operator()(int i) const { return ids[i]; }
};
struct From {
  SlaveId first;
  SlaveId operator()(int i) const { return first + i; }
};

/// Whether slave j is online on a view with (kOnline) or without an online
/// array.
template <bool kOnline>
inline bool online_at(const std::uint8_t* online, int j) {
  return !kOnline || online[j] != 0;
}

/// The probe of one slave from its fields, +infinity when `on` is false:
/// an offline slave is probed as busy until +infinity and divides by 1
/// rather than by its speed (which may be 0). Masking the inputs rather
/// than the probe keeps the divide unconditional: the compiler will not
/// speculate a divide whose result a select throws away, and left such a
/// loop scalar. The fields are loaded unconditionally too: a conditional
/// load made it version the loop for aliasing.
template <bool kSpeed>
inline Time masked_probe(Time now, Time send_start, double comm_factor,
                         double comp_factor, Time comm, Time comp, Time ready,
                         double speed, bool on) {
  const Time busy_until = on ? ready : std::numeric_limits<Time>::infinity();
  const double div = on ? speed : 1.0;
  return probe(now, send_start, comm_factor, comp_factor, comm, comp,
               busy_until, kSpeed ? &div : nullptr);
}

/// masked_probe of slave j, on a view with (kOnline) or without an online
/// array and with (kSpeed) or without per-slave speeds.
template <bool kOnline, bool kSpeed>
inline Time slave_probe(const SlaveStateView& s, Time now, Time send_start,
                        double comm_factor, double comp_factor, SlaveId j) {
  return masked_probe<kSpeed>(now, send_start, comm_factor, comp_factor,
                              s.comm[j], s.comp[j], s.ready[j],
                              kSpeed ? s.speed[j] : 1.0,
                              online_at<kOnline>(s.online, j));
}

/// out[i] = slave_probe of slave `slave(i)`: the batch and candidate forms'
/// loop, and the argmin's block fill. The batch loop and the block fill
/// vectorize on every view shape, the candidate loop on views without an
/// online array (GCC 12 cannot rule out that a store to `out` aliases an
/// indexed load of online bytes). `__restrict` (out overlaps no input) is
/// what lets the compiler build the candidate form's vectors from indexed
/// loads. The library's -ffp-contract=off keeps the FMA-capable targets
/// from fusing a mul+add, so every lane runs the probe's operation
/// sequence.
template <bool kOnline, bool kSpeed, typename SlaveOf>
__attribute__((always_inline)) inline void probe_body(
    const SlaveStateView& s, Time now, Time send_start, double comm_factor,
    double comp_factor, SlaveOf slave, int n, Time* __restrict out) {
  const Time* __restrict comm = s.comm;
  const Time* __restrict comp = s.comp;
  const Time* __restrict ready = s.ready;
  const std::uint8_t* __restrict online = s.online;
  const double* __restrict speed = s.speed;
  for (int i = 0; i < n; ++i) {
    const SlaveId j = slave(i);
    out[i] = masked_probe<kSpeed>(now, send_start, comm_factor, comp_factor,
                                  comm[j], comp[j], ready[j],
                                  kSpeed ? speed[j] : 1.0,
                                  online_at<kOnline>(online, j));
  }
}

/// probe_body for the view's speed array, on a view with (kOnline) or
/// without an online array.
template <bool kOnline, typename SlaveOf>
__attribute__((always_inline)) inline void probe_shape(
    const SlaveStateView& s, Time now, Time send_start, double cf, double pf,
    SlaveOf slave, int n, Time* out) {
  if (s.speed == nullptr) {
    probe_body<kOnline, false>(s, now, send_start, cf, pf, slave, n, out);
  } else {
    probe_body<kOnline, true>(s, now, send_start, cf, pf, slave, n, out);
  }
}

/// probe_shape for the view's shape.
template <typename SlaveOf>
__attribute__((always_inline)) inline void probe_dispatch(
    const SlaveStateView& s, Time now, Time send_start, double cf, double pf,
    SlaveOf slave, int n, Time* out) {
  if (s.online == nullptr) {
    probe_shape<false>(s, now, send_start, cf, pf, slave, n, out);
  } else {
    probe_shape<true>(s, now, send_start, cf, pf, slave, n, out);
  }
}

/// List scheduling's argmin, in blocks. The incumbent is the first online
/// slave, and a later slave replaces it only when its probe lies below
/// thr = incumbent - kTimeEps. A block's probes go to a stack array
/// (probe_body), and their `probe < thr` tests are ORed together with no
/// branch; a block with no hit is skipped whole (nothing in it can move the
/// incumbent, so thr holds across it), and a hit block is replayed lane by
/// lane with the sequential rule. The slaves after the last full block take
/// the same rule one at a time. So the answer is the sequential scan's on
/// every input. Blocks start at the incumbent's block: its incumbent lane
/// cannot pass against its own thr, and the lanes before it are offline.
template <bool kOnline, bool kSpeed>
__attribute__((always_inline)) inline SlaveId argmin_body(
    const SlaveStateView& s, Time now, Time send_start, double cf,
    double pf) {
  const int m = s.m;
  SlaveId best = 0;
  while (best < m && !online_at<kOnline>(s.online, best)) ++best;
  if (best >= m) return -1;
  Time thr = slave_probe<kOnline, kSpeed>(s, now, send_start, cf, pf, best) -
             kTimeEps;
  int j = best - best % kRankArgminBlock;
  for (; j + kRankArgminBlock <= m; j += kRankArgminBlock) {
    Time probes[kRankArgminBlock];
    probe_body<kOnline, kSpeed>(s, now, send_start, cf, pf, From{j},
                                kRankArgminBlock, probes);
    std::int64_t hit = 0;  // 64-bit, like the probes: the OR needs no narrowing
    for (int i = 0; i < kRankArgminBlock; ++i) {
      hit |= probes[i] < thr;
    }
    if (hit == 0) continue;
    for (int i = 0; i < kRankArgminBlock; ++i) {
      if (probes[i] < thr) {
        best = j + i;
        thr = probes[i] - kTimeEps;
      }
    }
  }
  for (; j < m; ++j) {
    const Time completion =
        slave_probe<kOnline, kSpeed>(s, now, send_start, cf, pf, j);
    if (completion < thr) {
      best = j;
      thr = completion - kTimeEps;
    }
  }
  return best;
}

/// argmin_body for the view's speed array, on a view with (kOnline) or
/// without an online array.
template <bool kOnline>
__attribute__((always_inline)) inline SlaveId argmin_shape(
    const SlaveStateView& s, Time now, Time send_start, double cf,
    double pf) {
  return s.speed == nullptr
             ? argmin_body<kOnline, false>(s, now, send_start, cf, pf)
             : argmin_body<kOnline, true>(s, now, send_start, cf, pf);
}

// The ISA variants need GCC/Clang's function `target` attribute on x86-64.
// The batch loop and the argmin are compiled again under target("avx2") for
// every view shape, and under target("avx512f") only for views without an
// online array: avx512f has no 512-bit byte operations, so GCC runs a loop
// that loads online bytes in 256-bit vectors there, and such an AVX-512
// copy measured slower than the AVX2 one (the AVX-512 variant sends those
// views to the AVX2 copy). resolve() picks the variant that runs. The
// candidate form has no wider variant: built from indexed scalar loads, its
// AVX2 and AVX-512 vectors ran slower per probe than the baseline loop.
#if (defined(__GNUC__) || defined(__clang__)) && defined(__x86_64__)
#define MSOL_RANK_KERNEL_SIMD 1
#define MSOL_RANK_KERNEL_VARIANT(isa, suffix, kOnline)                        \
  __attribute__((target(isa))) void batch_##suffix(                           \
      const SlaveStateView& s, Time now, Time send_start, double cf,          \
      double pf, Time* out) {                                                 \
    probe_shape<kOnline>(s, now, send_start, cf, pf, EverySlave{}, s.m, out); \
  }                                                                           \
  __attribute__((target(isa))) SlaveId argmin_##suffix(                       \
      const SlaveStateView& s, Time now, Time send_start, double cf,          \
      double pf) {                                                            \
    return argmin_shape<kOnline>(s, now, send_start, cf, pf);                 \
  }
MSOL_RANK_KERNEL_VARIANT("avx2", avx2_static, false)
MSOL_RANK_KERNEL_VARIANT("avx2", avx2_online, true)
MSOL_RANK_KERNEL_VARIANT("avx512f", avx512_static, false)
#endif

/// The variant a width runs on this host: kAuto takes the widest ISA the
/// host carries; a pinned ISA the build or host lacks falls back to scalar.
RankKernelWidth resolve(RankKernelWidth width) {
  const bool avx2 = rank_kernel_simd_available();
  // The AVX-512 variant runs the AVX2 copy on views with an online array.
  const bool avx512 = avx2 && rank_kernel_avx512_available();
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

/// The argmin through one variant; `width` is already resolved.
SlaveId argmin(RankKernelWidth width, const SlaveStateView& s, Time now,
               Time send_start, double cf, double pf) {
  switch (width) {
#ifdef MSOL_RANK_KERNEL_SIMD
    case RankKernelWidth::kAvx512:
      if (s.online == nullptr) {
        return argmin_avx512_static(s, now, send_start, cf, pf);
      }
      [[fallthrough]];  // the AVX2 copy runs views with an online array
    case RankKernelWidth::kAvx2:
      return s.online == nullptr
                 ? argmin_avx2_static(s, now, send_start, cf, pf)
                 : argmin_avx2_online(s, now, send_start, cf, pf);
#endif
    default:
      return s.online == nullptr
                 ? argmin_shape<false>(s, now, send_start, cf, pf)
                 : argmin_shape<true>(s, now, send_start, cf, pf);
  }
}

}  // namespace

void completion_batch(const SlaveStateView& s, Time now, Time send_start,
                      double comm_factor, double comp_factor, Time* out) {
  probe_dispatch(s, now, send_start, comm_factor, comp_factor, EverySlave{},
                 s.m, out);
}

void completion_gather(const SlaveStateView& s, Time now, Time send_start,
                       double comm_factor, double comp_factor,
                       const SlaveId* ids, int n, Time* out) {
  probe_dispatch(s, now, send_start, comm_factor, comp_factor,
                 Candidates{ids}, n, out);
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
      if (s.online == nullptr) {
        return batch_avx512_static(s, now, send_start, comm_factor,
                                   comp_factor, out);
      }
      [[fallthrough]];  // the AVX2 copy runs views with an online array
    case RankKernelWidth::kAvx2:
      return s.online == nullptr
                 ? batch_avx2_static(s, now, send_start, comm_factor,
                                     comp_factor, out)
                 : batch_avx2_online(s, now, send_start, comm_factor,
                                     comp_factor, out);
#endif
    default:
      return completion_batch(s, now, send_start, comm_factor, comp_factor,
                              out);
  }
}

SlaveId rank_best_completion(const SlaveStateView& s, Time now,
                             Time send_start, double comm_factor,
                             double comp_factor) {
  // The widest variant this host runs, resolved once per process.
  static const RankKernelWidth width = resolve(RankKernelWidth::kAuto);
  return argmin(width, s, now, send_start, comm_factor, comp_factor);
}

SlaveId rank_best_completion_width(RankKernelWidth width,
                                   const SlaveStateView& s, Time now,
                                   Time send_start, double comm_factor,
                                   double comp_factor) {
  return argmin(resolve(width), s, now, send_start, comm_factor,
                comp_factor);
}

}  // namespace msol::core
