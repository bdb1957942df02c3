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
// the same oracle. The argmin form (rank_best_completion) scans in blocks
// of kRankArgminBlock slaves and is compiled three times too: every width
// is checked against a sequential argmin over the oracle, eps tie band
// included, at fleet sizes around one and two blocks, with ties, chains and
// offline blocks planted at the block boundaries.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/rank_kernel.hpp"
#include "oracles/reference_probes.hpp"
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

constexpr int kB = kRankArgminBlock;

/// The default argmin and every pinned width must pick `want`. A width the
/// build or host lacks runs the scalar compilation, which is checked too.
void expect_argmin(const SlaveStateView& v, Time now, Time send_start,
                   double cf, double pf, SlaveId want,
                   const std::string& where) {
  EXPECT_EQ(rank_best_completion(v, now, send_start, cf, pf), want)
      << where << ", default width";
  for (const RankKernelWidth width :
       {RankKernelWidth::kAuto, RankKernelWidth::kScalar,
        RankKernelWidth::kAvx2, RankKernelWidth::kAvx512}) {
    EXPECT_EQ(rank_best_completion_width(width, v, now, send_start, cf, pf),
              want)
        << where << ", width " << static_cast<int>(width);
  }
}

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

/// Unit link and compute, now = send start = 0: every ready time lies past
/// the send end, so slave j's probe is ready[j] + 1 and the ready times
/// alone decide. Runs the static scan (no online or speed array) and the
/// availability scan (all online, unit speeds) through every width.
void expect_ready_argmin(const std::vector<Time>& ready, SlaveId want,
                         const std::string& where) {
  const std::vector<Time> unit(ready.size(), 1.0);
  const std::vector<std::uint8_t> online(ready.size(), 1);
  SlaveStateView v;
  v.comm = unit.data();
  v.comp = unit.data();
  v.ready = ready.data();
  v.m = static_cast<int>(ready.size());
  expect_argmin(v, 0.0, 0.0, 1.0, 1.0, want, where + ", static");
  v.online = online.data();
  v.speed = unit.data();
  expect_argmin(v, 0.0, 0.0, 1.0, 1.0, want, where + ", availability");
}

TEST(RankBestCompletion, ALaterSlaveWinsOnlyWhenBetterByMoreThanTheEpsBand) {
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
    expect_ready_argmin(c.ready, c.best,
                        "ready[1] = " + std::to_string(c.ready[1]));
  }

  // The same rules where a block meets the next block or the scalar tail,
  // and inside the tail: the pair or chain starts at p on a field of worse
  // slaves (ready 20), so its first slave becomes the incumbent and the
  // band is its own. The chain's last slave beats the first by 1.2e-9 and
  // wins; an exact tie and a step inside the band keep the first.
  for (const int m : {kB + 2, kB + 3, 2 * kB + 1, 3 * kB}) {
    for (const int p : {kB - 2, kB - 1, kB, 2 * kB - 2, 2 * kB - 1}) {
      if (p + 2 >= m) continue;
      const std::string where =
          "m = " + std::to_string(m) + ", p = " + std::to_string(p);
      std::vector<Time> ready(static_cast<std::size_t>(m), 20.0);
      const auto ps = static_cast<std::size_t>(p);
      ready[ps] = 10.0;
      ready[ps + 1] = 10.0 - 0.6e-9;
      ready[ps + 2] = 10.0 - 1.2e-9;
      expect_ready_argmin(ready, p + 2, where + ", chain");
      ready[ps + 2] = 20.0;
      expect_ready_argmin(ready, p, where + ", step inside the band");
      ready[ps + 1] = 10.0;
      expect_ready_argmin(ready, p, where + ", exact tie");
    }
  }

  // Offline slaves are skipped, not scored: the band starts at the first
  // online slave, and with none online there is no answer.
  const std::vector<Time> unit(3, 1.0);
  const std::vector<Time> ready = {10.0 - 4e-9, 10.0, 10.0 - 0.5e-9};
  std::vector<std::uint8_t> online = {0, 1, 1};
  SlaveStateView v{unit.data(), unit.data(), ready.data(), online.data(),
                   nullptr, 3};
  expect_argmin(v, 0.0, 0.0, 1.0, 1.0, 1, "first slave offline");
  online = {0, 0, 0};
  expect_argmin(v, 0.0, 0.0, 1.0, 1.0, -1, "every slave offline");
}

/// Random views almost never tie. So on each of `reps` random views of m
/// slaves, slaves after the argmin become copies of it, with its compute
/// time exact, moved by a tenth of the eps band either way, or lowered by
/// eight bands: their probes move by that shift times pf / speed (at most
/// 8x, at least 0.25x), so some copies tie exactly, some fall inside the
/// band on either side, and some beat the argmin by more than the band.
/// Each later slave becomes a copy with probability `density`, and, when
/// `at_boundaries`, every slave on either side of a block boundary does.
/// Every view runs in all four shapes through every width, against an
/// argmin written over reference_probes.
void expect_planted_ties(int m, util::Rng& rng, int reps, double density,
                         bool at_boundaries) {
  const Time shifts[] = {0.0, -0.1e-9, 0.1e-9, -8e-9};
  const DenseState state(m, rng);
  for (int rep = 0; rep < reps; ++rep) {
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
          const bool at_boundary =
              at_boundaries && (j % kB == 0 || j % kB == kB - 1);
          if (!at_boundary && !rng.chance(density)) continue;
          const auto js = static_cast<std::size_t>(j);
          planted.comm[js] = planted.comm[b];
          planted.comp[js] = planted.comp[b] + shifts[rng.uniform_int(0, 3)];
          planted.ready[js] = planted.ready[b];
          planted.online[js] = planted.online[b];
          planted.speed[js] = planted.speed[b];
        }
        expect_argmin(v, now, send_start, cf, pf,
                      reference_best(v, now, send_start, cf, pf),
                      "m = " + std::to_string(m) +
                          ", density = " + std::to_string(density) +
                          ", online = " + std::to_string(with_online) +
                          ", speed = " + std::to_string(with_speed));
      }
    }
  }
}

TEST(RankBestCompletion, MatchesTheReferenceArgminOnPlantedTies) {
  // Copies on about half the slaves after the argmin, 8 views per size.
  util::Rng rng(77);
  for (const int m : {1, 2, 3, 8, 17, 64, 257}) {
    expect_planted_ties(m, rng, 8, 0.5, false);
  }
  // Sizes around one and two blocks and a fleet, with copies on both sides
  // of every block boundary as well; from two blocks up, 4 more views with
  // copies on a fiftieth of the other slaves, so most blocks are skipped.
  util::Rng boundary_rng(78);
  for (const int m : {1, 2, 3, 8, 17, kB - 1, kB, kB + 1, 2 * kB - 1,
                      2 * kB + 1, 64, 257, 4096}) {
    expect_planted_ties(m, boundary_rng, 8, 0.5, true);
    if (m >= 2 * kB) expect_planted_ties(m, boundary_rng, 4, 0.02, true);
  }
}

TEST(RankBestCompletion, OfflineBlocksNeitherWinNorDivideByZero) {
  // Every online slave is ready at 100, except one at 50 in the scalar
  // tail. The offline slaves (a prefix longer than a block, and one whole
  // block inside the view) are ready at 0 with speed 0: probed like online
  // ones they would win, and divided by their speed they would raise
  // FE_DIVBYZERO.
  const int m = 5 * kB + 3;
  const int want = 5 * kB + 1;
  const std::vector<Time> unit(static_cast<std::size_t>(m), 1.0);
  std::vector<Time> ready(static_cast<std::size_t>(m), 100.0);
  std::vector<double> speed(static_cast<std::size_t>(m), 1.0);
  std::vector<std::uint8_t> online(static_cast<std::size_t>(m), 1);
  ready[static_cast<std::size_t>(want)] = 50.0;
  for (int j = 0; j < m; ++j) {
    if (j < kB + 3 || (j >= 3 * kB && j < 4 * kB)) {
      const auto js = static_cast<std::size_t>(j);
      online[js] = 0;
      ready[js] = 0.0;
      speed[js] = 0.0;
    }
  }
  for (const bool with_speed : {false, true}) {
    const SlaveStateView v{unit.data(), unit.data(), ready.data(),
                           online.data(), with_speed ? speed.data() : nullptr,
                           m};
    std::feclearexcept(FE_DIVBYZERO);
    expect_argmin(v, 0.0, 0.0, 1.0, 1.0, want,
                  "speed = " + std::to_string(with_speed));
    EXPECT_EQ(std::fetestexcept(FE_DIVBYZERO), 0)
        << "speed = " << with_speed;
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
