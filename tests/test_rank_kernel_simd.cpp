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
// the same oracle, and the argmin form (rank_best_completion) is checked
// against an argmin over it, eps tie band included.

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

// ------------------------------------------------------------ argmin form ----

/// List scheduling's argmin written out over reference_probes: the first
/// online slave, replaced by a later one only when its probe is smaller by
/// more than kTimeEps; -1 when every slave is offline.
SlaveId reference_best(const SlaveStateView& v, Time now, Time send_start,
                       double cf, double pf) {
  const std::vector<Time> probes =
      reference_probes(v, now, send_start, cf, pf, all_slaves(v.m));
  SlaveId best = -1;
  for (SlaveId j = 0; j < v.m; ++j) {
    if (v.online != nullptr && v.online[j] == 0) continue;
    const auto js = static_cast<std::size_t>(j);
    if (best < 0 || probes[js] < probes[static_cast<std::size_t>(best)] -
                                     kTimeEps) {
      best = j;
    }
  }
  return best;
}

TEST(RankBestCompletion, ALaterSlaveWinsOnlyWhenBetterByMoreThanTheEpsBand) {
  // Unit link and compute, now = send start = 0: every ready time lies past
  // the send end, so slave j's probe is ready[j] + 1 and the ready times
  // alone decide. Each case runs on the static loop (no online or speed
  // array) and on the availability loop (all online, unit speeds).
  struct Case {
    std::vector<Time> ready;
    SlaveId best;
  };
  const Case cases[] = {
      {{10.0, 10.0}, 0},                            // exact tie
      {{10.0, 10.0 - 0.5e-9}, 0},                   // inside the band
      {{10.0, 10.0 - 2e-9}, 1},                     // outside the band
      {{10.0, 10.0 - 0.6e-9, 10.0 - 1.2e-9}, 2},    // the band is the best's
  };
  for (const Case& c : cases) {
    const auto m = c.ready.size();
    const std::vector<Time> unit(m, 1.0);
    const std::vector<std::uint8_t> online(m, 1);
    SlaveStateView v;
    v.comm = unit.data();
    v.comp = unit.data();
    v.ready = c.ready.data();
    v.m = static_cast<int>(m);
    EXPECT_EQ(rank_best_completion(v, 0.0, 0.0, 1.0, 1.0), c.best)
        << "static, ready[1] = " << c.ready[1];
    v.online = online.data();
    v.speed = unit.data();
    EXPECT_EQ(rank_best_completion(v, 0.0, 0.0, 1.0, 1.0), c.best)
        << "availability, ready[1] = " << c.ready[1];
  }

  // Offline slaves are skipped, not scored: the band starts at the first
  // online slave, and with none online there is no answer.
  const std::vector<Time> unit(3, 1.0);
  const std::vector<Time> ready = {10.0 - 4e-9, 10.0, 10.0 - 0.5e-9};
  std::vector<std::uint8_t> online = {0, 1, 1};
  SlaveStateView v{unit.data(), unit.data(), ready.data(), online.data(),
                   nullptr, 3};
  EXPECT_EQ(rank_best_completion(v, 0.0, 0.0, 1.0, 1.0), 1);
  online = {0, 0, 0};
  EXPECT_EQ(rank_best_completion(v, 0.0, 0.0, 1.0, 1.0), -1);
}

TEST(RankBestCompletion, MatchesTheReferenceArgminOnPlantedTies) {
  util::Rng rng(77);
  // Random views almost never tie. So on each view, about half the slaves
  // after the argmin become copies of it, with its compute time exact,
  // moved by a tenth of the eps band either way, or lowered by eight bands:
  // their probes move by that shift times pf / speed (at most 8x, at least
  // 0.25x), so some copies tie exactly, some fall inside the band on
  // either side, and some beat the argmin by more than the band.
  const Time shifts[] = {0.0, -0.1e-9, 0.1e-9, -8e-9};
  for (int m : {1, 2, 3, 8, 17, 64, 257}) {
    const DenseState state(m, rng);
    for (int rep = 0; rep < 8; ++rep) {
      const Time now = rng.uniform(0.0, 400.0);
      const Time send_start = now + rng.uniform(0.0, 1.0);
      const double cf = rng.uniform(0.5, 2.0);
      const double pf = rng.uniform(0.5, 2.0);
      for (const bool with_online : {false, true}) {
        for (const bool with_speed : {false, true}) {
          DenseState planted = state;
          const SlaveStateView v = planted.view(with_online, with_speed);
          const SlaveId best = reference_best(v, now, send_start, cf, pf);
          const auto b = static_cast<std::size_t>(best);
          for (int j = best + 1; best >= 0 && j < m; ++j) {
            if (!rng.chance(0.5)) continue;
            const auto js = static_cast<std::size_t>(j);
            planted.comm[js] = planted.comm[b];
            planted.comp[js] = planted.comp[b] + shifts[rng.uniform_int(0, 3)];
            planted.ready[js] = planted.ready[b];
            planted.online[js] = planted.online[b];
            planted.speed[js] = planted.speed[b];
          }
          EXPECT_EQ(rank_best_completion(v, now, send_start, cf, pf),
                    reference_best(v, now, send_start, cf, pf))
              << "m=" << m << " online=" << with_online
              << " speed=" << with_speed;
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
