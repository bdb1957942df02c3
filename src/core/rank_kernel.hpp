#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace msol::core {

/// Structure-of-arrays snapshot of the per-slave state a completion probe
/// reads: one pointer per field into the owning engine's dense arrays, valid
/// only for the duration of the call that handed it out (the next engine
/// step may reallocate). `online`/`speed` are null on static platforms
/// (everything online, unit speed) so the kernels skip the offline pass and
/// the per-slave divide.
///
/// Every EngineView exposes one (EngineView::slave_state()), and every
/// per-slave read and probe of a view reads it, so the kernel is the only
/// probe path; the scalar probe that checks it bit for bit lives in the
/// tests (tests/oracles/reference_probes.hpp).
struct SlaveStateView {
  const Time* comm = nullptr;           ///< c_j (nominal port seconds)
  const Time* comp = nullptr;           ///< p_j (nominal compute seconds)
  const Time* ready = nullptr;          ///< raw busy-until (may lag now)
  const std::uint8_t* online = nullptr; ///< null = every slave online
  const double* speed = nullptr;        ///< null = unit speed everywhere
  int m = 0;

  /// True when slave j is online (always, on a view without an online
  /// array); j must be a valid slave index.
  bool is_online(SlaveId j) const { return online == nullptr || online[j] != 0; }
};

/// Batched form of EngineView::completion_if_assigned for one task against
/// every slave: out[j] = completion of a hypothetical commitment to slave j
/// (+infinity for offline slaves). `send_start` is the caller-hoisted
/// max(now, port_free_at, release) — loop-invariant, so m probes share it.
///
/// The arithmetic is operation-for-operation the tests' scalar reference
/// probe (same max() chains, same multiply-then-divide order), because the
/// kernel suites require it to be bit-identical to that probe, not merely
/// close. `out` must not overlap the view's arrays: the kernel is compiled
/// on that assumption (`__restrict`).
void completion_batch(const SlaveStateView& s, Time now, Time send_start,
                      double comm_factor, double comp_factor, Time* out);

/// Candidate form of completion_batch for a *subset* of slaves: out[i] is
/// the hypothetical completion on slave ids[i] (+infinity when offline).
/// Candidate ids must be valid slave indices — the kernel indexes the dense
/// arrays directly, exactly like the full-sweep form — and `out` must not
/// overlap `ids` or the view's arrays.
void completion_gather(const SlaveStateView& s, Time now, Time send_start,
                       double comm_factor, double comp_factor,
                       const SlaveId* ids, int n, Time* out);

/// Slaves per block of rank_best_completion's scan: one 32-byte vector of
/// online bytes, four AVX-512 or eight AVX2 vectors of probes. Blocks of 32
/// ran faster than blocks of 16 on availability views, and no slower on
/// static ones.
inline constexpr int kRankArgminBlock = 32;

/// Batched form of EngineView::best_completion_slave: the available slave
/// minimizing the hypothetical completion, with list scheduling's exact
/// tie-break (a later slave wins only when strictly better by more than
/// kTimeEps); -1 when no slave is available.
///
/// The answer is the sequential scan's on every input. The scan runs in
/// blocks of kRankArgminBlock slaves and skips each block where no slave
/// beats the incumbent's band. Like the batch loop it is compiled for AVX2
/// and AVX-512 as well as baseline, and the widest variant the host runs is
/// picked once per process. Offline slaves are probed with masked inputs
/// (busy until +infinity, divided by 1), the same probe the batch and
/// candidate forms use.
SlaveId rank_best_completion(const SlaveStateView& s, Time now,
                             Time send_start, double comm_factor,
                             double comp_factor);

/// True when the AVX2 variants of completion_batch and rank_best_completion
/// will actually run: the build carries them (GCC/Clang on x86-64, which
/// compile the batch loop and the argmin a second time under a
/// function-level target("avx2") attribute) AND the host CPU supports AVX2
/// (checked at runtime).
bool rank_kernel_simd_available();

/// True when the build carries the AVX-512 variants (the same loops under
/// target("avx512f"), for views without an online array) AND the host CPU
/// reports AVX-512 Foundation. They run when rank_kernel_simd_available()
/// holds too, since the AVX-512 variant runs the AVX2 copy on views with an
/// online array; a host can have AVX2 without AVX-512 (most do), never the
/// reverse in practice.
bool rank_kernel_avx512_available();

/// Which compilation of the batch loop (completion_batch_width) or of the
/// argmin (rank_best_completion_width) runs. kAuto is the widest ISA the
/// host supports, scalar when none. The pinned values force one variant
/// (falling back to scalar when the build or host lacks the ISA) so the
/// tests can check every variant against the same oracle on one host.
/// kAvx512 runs views with an online array through the AVX2 copy: without
/// 512-bit byte operations, GCC vectorizes their loops at 256 bits under
/// avx512f, and that copy measured slower than the AVX2 one.
/// completion_gather has one compilation only: its AVX2 and AVX-512
/// variants measured slower than the baseline loop.
enum class RankKernelWidth : std::uint8_t {
  kAuto,
  kScalar,
  kAvx2,
  kAvx512,
};

/// completion_batch through one variant (see RankKernelWidth). Every
/// variant is the scalar loop compiled for a wider target, so each lane
/// performs the scalar probe's exact operation sequence on every view —
/// static, online-masked or with per-slave speeds — and the output is
/// bit-identical to completion_batch (memcmp-pinned in
/// tests/test_rank_kernel_simd.cpp). The library is built with
/// -ffp-contract=off because the avx512f target carries FMA forms a
/// contracted mul+add would use, rounding once where the probe rounds twice.
void completion_batch_width(RankKernelWidth width, const SlaveStateView& s,
                            Time now, Time send_start, double comm_factor,
                            double comp_factor, Time* out);

/// rank_best_completion through one variant (see RankKernelWidth). Every
/// variant returns the same slave on every view; the tests check each one
/// against a sequential argmin over the independent probe.
SlaveId rank_best_completion_width(RankKernelWidth width,
                                   const SlaveStateView& s, Time now,
                                   Time send_start, double comm_factor,
                                   double comp_factor);

}  // namespace msol::core
