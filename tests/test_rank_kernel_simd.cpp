// The rank kernel's batch form is compiled three times: the scalar loop, and
// the same loop under target("avx2") and target("avx512f"). The variants
// must stay bit-identical to it: every lane performs the scalar probe's
// multiplies, adds, max selections and multiply-then-divide, with no FMA
// contraction. These tests check the loop against a probe written out
// independently, then pin every batch width against completion_batch with
// memcmp, on static, online-masked and per-slave-speed views alike; fleet
// sizes and subset lengths straddle the 2-, 4- and 8-lane vectors and their
// multiples (16, 32), so every vector tail length is exercised. The
// candidate form (completion_gather) has one compilation, checked against
// the same oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/rank_kernel.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

struct DenseState {
  std::vector<Time> comm, comp, ready;
  std::vector<std::uint8_t> online;
  std::vector<double> speed;

  explicit DenseState(int m, util::Rng& rng) {
    comm.reserve(m);
    comp.reserve(m);
    ready.reserve(m);
    online.reserve(m);
    speed.reserve(m);
    for (int j = 0; j < m; ++j) {
      comm.push_back(rng.uniform(0.01, 10.0));
      comp.push_back(rng.uniform(0.1, 100.0));
      ready.push_back(rng.uniform(0.0, 500.0));
      online.push_back(rng.uniform(0.0, 1.0) < 0.2 ? 0 : 1);
      speed.push_back(rng.uniform(0.25, 2.0));
    }
  }

  SlaveStateView view(bool with_online, bool with_speed) const {
    SlaveStateView v;
    v.comm = comm.data();
    v.comp = comp.data();
    v.ready = ready.data();
    v.online = with_online ? online.data() : nullptr;
    v.speed = with_speed ? speed.data() : nullptr;
    v.m = static_cast<int>(comm.size());
    return v;
  }
};

/// The engine's per-slave probe, written out independently of the kernel:
/// the oracle both scalar loops are checked against before every batch
/// width is checked against the scalar batch loop.
std::vector<Time> reference_probes(const SlaveStateView& v, Time now,
                                   Time send_start, double cf, double pf,
                                   const std::vector<SlaveId>& ids) {
  std::vector<Time> out;
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

std::vector<SlaveId> all_slaves(int m) {
  std::vector<SlaveId> ids(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) ids[static_cast<std::size_t>(j)] = j;
  return ids;
}

/// memcmp over the raw doubles: equality of every bit, not just of values
/// (a -0.0 vs +0.0 or differently-rounded lane would slip past ==).
void expect_bitwise_equal(const std::vector<Time>& a,
                          const std::vector<Time>& b) {
  ASSERT_EQ(a.size(), b.size());
  // memcmp's pointers must be non-null even for zero bytes (m = 0 views).
  if (a.empty()) return;
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Time)), 0);
}

TEST(RankKernelSimd, BitIdenticalToScalarOnStaticViews) {
  util::Rng rng(2006);
  // Sizes straddle the 4-, 8-, and 16-lane groups: 0 exercises the empty
  // loop, small sizes the scalar tails, the larger sizes every vector body
  // plus every tail length modulo 4, 8, and 16.
  for (int m : {0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 17, 23, 24, 31, 32,
                33, 64, 127, 256, 1001}) {
    const DenseState state(m, rng);
    const SlaveStateView v = state.view(false, false);
    for (int rep = 0; rep < 4; ++rep) {
      const Time now = rng.uniform(0.0, 1000.0);
      const Time send_start = now + rng.uniform(0.0, 10.0);
      const double cf = rng.uniform(0.5, 2.0);
      const double pf = rng.uniform(0.5, 2.0);
      std::vector<Time> scalar(m, -1.0);
      std::vector<Time> simd(m, -2.0);
      completion_batch(v, now, send_start, cf, pf, scalar.data());
      completion_batch_width(RankKernelWidth::kAuto, v, now, send_start, cf,
                             pf, simd.data());
      expect_bitwise_equal(scalar, simd);
    }
  }
}

TEST(RankKernelSimd, EveryPinnedWidthIsBitIdenticalToScalar) {
  // completion_batch_width forces one variant (falling back to scalar when
  // the build or host lacks the ISA) — every width must agree with the
  // scalar loop bit-for-bit, which transitively pins AVX-512 == AVX2. Views
  // with online and speed state run through the same variants.
  util::Rng rng(512);
  for (int m : {0, 1, 3, 7, 8, 15, 16, 17, 31, 32, 33, 48, 100, 257}) {
    const DenseState state(m, rng);
    for (int rep = 0; rep < 4; ++rep) {
      const Time now = rng.uniform(0.0, 1000.0);
      const Time send_start = now + rng.uniform(0.0, 10.0);
      const double cf = rng.uniform(0.5, 2.0);
      const double pf = rng.uniform(0.5, 2.0);
      for (const bool with_online : {false, true}) {
        for (const bool with_speed : {false, true}) {
          const SlaveStateView v = state.view(with_online, with_speed);
          std::vector<Time> scalar(m, -1.0);
          completion_batch(v, now, send_start, cf, pf, scalar.data());
          expect_bitwise_equal(
              reference_probes(v, now, send_start, cf, pf, all_slaves(m)),
              scalar);
          for (const RankKernelWidth width :
               {RankKernelWidth::kAuto, RankKernelWidth::kScalar,
                RankKernelWidth::kAvx2, RankKernelWidth::kAvx512}) {
            std::vector<Time> out(m, -2.0);
            completion_batch_width(width, v, now, send_start, cf, pf,
                                   out.data());
            expect_bitwise_equal(scalar, out);
          }
        }
      }
    }
  }
}

// ----------------------------------------------------------- gather form ----

/// Candidate-id subsets over an m-slave view: the shapes the meta layer's
/// incremental projections actually emit (empty, a singleton probe, strided
/// sub-fleets, the full sweep) plus random draws with repeats.
std::vector<std::vector<SlaveId>> gather_subsets(int m, util::Rng& rng) {
  std::vector<std::vector<SlaveId>> subsets;
  subsets.emplace_back();  // empty
  if (m == 0) return subsets;
  subsets.push_back({static_cast<SlaveId>(m / 2)});  // singleton
  for (const int stride : {2, 3}) {                  // strided
    std::vector<SlaveId> ids;
    for (int j = 0; j < m; j += stride) ids.push_back(j);
    subsets.push_back(std::move(ids));
  }
  subsets.push_back(all_slaves(m));
  std::vector<SlaveId> random;  // repeats allowed: gathers must not care
  for (int i = 0; i < m + 3; ++i) {
    random.push_back(
        static_cast<SlaveId>(rng.uniform_int(0, static_cast<std::int64_t>(m) - 1)));
  }
  subsets.push_back(std::move(random));
  return subsets;
}

TEST(RankKernelSimd, GatherMatchesTheReferenceProbeAcrossSubsetShapes) {
  util::Rng rng(4242);
  // Fleet sizes straddle the 4/8/16-lane groups, so the subset lengths
  // above cover every tail length modulo 16.
  for (int m : {0, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 29, 31, 32, 33, 64, 100,
                257}) {
    const DenseState state(m, rng);
    for (const std::vector<SlaveId>& ids : gather_subsets(m, rng)) {
      const int n = static_cast<int>(ids.size());
      for (int rep = 0; rep < 3; ++rep) {
        const Time now = rng.uniform(0.0, 1000.0);
        const Time send_start = now + rng.uniform(0.0, 10.0);
        const double cf = rng.uniform(0.5, 2.0);
        const double pf = rng.uniform(0.5, 2.0);
        for (const bool with_online : {false, true}) {
          for (const bool with_speed : {false, true}) {
            const SlaveStateView v = state.view(with_online, with_speed);
            std::vector<Time> out(static_cast<std::size_t>(n), -1.0);
            completion_gather(v, now, send_start, cf, pf, ids.data(), n,
                              out.data());
            expect_bitwise_equal(
                reference_probes(v, now, send_start, cf, pf, ids), out);
          }
        }
      }
    }
  }
}

TEST(RankKernelSimd, AvailabilityFlagIsStable) {
  // Whatever this host reports, it must report consistently — the bench
  // prints it per run and the kernel dispatches on it per call.
  const bool first = rank_kernel_simd_available();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(rank_kernel_simd_available(), first);
  const bool avx512 = rank_kernel_avx512_available();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(rank_kernel_avx512_available(), avx512);
  }
  // No known x86-64 reports AVX-512F without AVX2; the dispatch order
  // (avx512 -> avx2 -> scalar) leans on the implication.
  if (avx512) {
    EXPECT_TRUE(first);
  }
}

}  // namespace
}  // namespace msol::core
