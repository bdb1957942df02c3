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
/// Every EngineView exposes one (EngineView::slave_state()), so the kernel
/// is the only probe path; the per-slave loops that check it bit for bit
/// live in the tests.
struct SlaveStateView {
  const Time* comm = nullptr;           ///< c_j (nominal port seconds)
  const Time* comp = nullptr;           ///< p_j (nominal compute seconds)
  const Time* ready = nullptr;          ///< raw busy-until (may lag now)
  const std::uint8_t* online = nullptr; ///< null = every slave online
  const double* speed = nullptr;        ///< null = unit speed everywhere
  int m = 0;
};

/// Batched form of EngineView::completion_if_assigned for one task against
/// every slave: out[j] = completion of a hypothetical commitment to slave j
/// (+infinity for offline slaves). `send_start` is the caller-hoisted
/// max(now, port_free_at, release) — loop-invariant, so m probes share it.
///
/// The arithmetic is operation-for-operation the engine's scalar probe
/// (same max() chains, same multiply-then-divide order), because the
/// differential suites require it to be bit-identical to the per-slave
/// probe, not merely close. `out` must not overlap the view's
/// arrays: the kernel is compiled on that assumption (`__restrict`).
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

/// Batched form of EngineView::best_completion_slave: the available slave
/// minimizing the hypothetical completion, with list scheduling's exact
/// tie-break (a later slave wins only when strictly better by more than
/// kTimeEps); -1 when no slave is available.
SlaveId rank_best_completion(const SlaveStateView& s, Time now,
                             Time send_start, double comm_factor,
                             double comp_factor);

/// True when the AVX2 variant of completion_batch will actually run: the
/// build carries it (GCC/Clang on x86-64, which compile the batch loop a
/// second time under a function-level target("avx2") attribute) AND the
/// host CPU supports AVX2 (checked at runtime).
bool rank_kernel_simd_available();

/// True when the AVX-512 variant will actually run: the build carries it
/// (the same loop under target("avx512f")) AND the host CPU reports
/// AVX-512 Foundation. Independent of rank_kernel_simd_available() — a host
/// can have AVX2 without AVX-512 (most do), never the reverse in practice.
bool rank_kernel_avx512_available();

/// Which compilation of the batch loop completion_batch_width runs. kAuto
/// is the widest ISA the host supports, scalar when none. The pinned values
/// force one variant (falling back to scalar when the build or host lacks
/// the ISA) so the bit-identity tests can memcmp every variant against every
/// other on the same host. completion_gather has one compilation only: its
/// AVX2 and AVX-512 variants measured slower than the baseline loop.
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

}  // namespace msol::core
