#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/workload.hpp"
#include "core/workload_io.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

TEST(Workload, SortsByReleaseKeepingStability) {
  const Workload w({TaskSpec{2.0, 1.0, 1.0}, TaskSpec{0.0, 2.0, 1.0},
                    TaskSpec{2.0, 3.0, 1.0}});
  EXPECT_DOUBLE_EQ(w.at(0).release, 0.0);
  EXPECT_DOUBLE_EQ(w.at(1).release, 2.0);
  EXPECT_DOUBLE_EQ(w.at(1).comm_factor, 1.0);  // first of the ties
  EXPECT_DOUBLE_EQ(w.at(2).comm_factor, 3.0);
}

TEST(Workload, RejectsInvalidSpecs) {
  EXPECT_THROW(Workload({TaskSpec{-1.0, 1.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Workload({TaskSpec{0.0, 0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Workload({TaskSpec{0.0, 1.0, -1.0}}), std::invalid_argument);
}

TEST(Workload, AllAtZero) {
  const Workload w = Workload::all_at_zero(5);
  EXPECT_EQ(w.size(), 5);
  for (TaskId i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(w.at(i).release, 0.0);
    EXPECT_DOUBLE_EQ(w.at(i).comm_factor, 1.0);
  }
  EXPECT_DOUBLE_EQ(w.last_release(), 0.0);
}

TEST(Workload, PoissonIsSortedAndStartsAtZero) {
  util::Rng rng(9);
  const Workload w = Workload::poisson(200, 2.0, rng);
  EXPECT_EQ(w.size(), 200);
  EXPECT_DOUBLE_EQ(w.at(0).release, 0.0);
  for (TaskId i = 1; i < w.size(); ++i) {
    EXPECT_GE(w.at(i).release, w.at(i - 1).release);
  }
}

TEST(Workload, PoissonMeanInterArrivalMatchesRate) {
  util::Rng rng(9);
  const Workload w = Workload::poisson(5000, 2.0, rng);
  EXPECT_NEAR(w.last_release() / (w.size() - 1), 0.5, 0.05);
}

TEST(Workload, UniformWithinHorizon) {
  util::Rng rng(4);
  const Workload w = Workload::uniform(100, 10.0, rng);
  for (TaskId i = 0; i < w.size(); ++i) {
    EXPECT_GE(w.at(i).release, 0.0);
    EXPECT_LE(w.at(i).release, 10.0);
  }
}

TEST(Workload, BurstyGroupsReleases) {
  util::Rng rng(4);
  const Workload w = Workload::bursty(50, 10, 5.0, rng);
  EXPECT_EQ(w.size(), 50);
  // First ten tasks share release 0.
  for (TaskId i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(w.at(i).release, 0.0);
  // Bursts are separated (the 11th task comes strictly later w.h.p.).
  EXPECT_GT(w.at(10).release, 0.0);
}

TEST(Workload, FromReleasesSortsInput) {
  const Workload w = Workload::from_releases({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(w.at(0).release, 1.0);
  EXPECT_DOUBLE_EQ(w.at(2).release, 3.0);
}

TEST(Workload, SizeJitterStaysInBandAndKeepsReleases) {
  util::Rng rng(12);
  const Workload base = Workload::all_at_zero(100);
  const Workload jittered = base.with_size_jitter(0.10, rng);
  ASSERT_EQ(jittered.size(), base.size());
  bool any_off_one = false;
  for (TaskId i = 0; i < jittered.size(); ++i) {
    const TaskSpec& t = jittered.at(i);
    EXPECT_DOUBLE_EQ(t.release, 0.0);
    EXPECT_GE(t.comm_factor, 0.9);
    EXPECT_LE(t.comm_factor, 1.1);
    // Comm and comp scale together: it is the matrix that changes size.
    EXPECT_DOUBLE_EQ(t.comm_factor, t.comp_factor);
    if (t.comm_factor != 1.0) any_off_one = true;
  }
  EXPECT_TRUE(any_off_one);
}

TEST(Workload, SizeJitterRejectsBadDelta) {
  util::Rng rng(12);
  const Workload base = Workload::all_at_zero(3);
  EXPECT_THROW(base.with_size_jitter(-0.1, rng), std::invalid_argument);
  EXPECT_THROW(base.with_size_jitter(1.0, rng), std::invalid_argument);
}

TEST(Workload, InhomogeneousPoissonProducesSortedUnitTasks) {
  util::Rng rng(5);
  const Workload w = Workload::inhomogeneous_poisson(200, 2.0, 0.9, 10.0, rng);
  ASSERT_EQ(w.size(), 200);
  for (TaskId i = 0; i < w.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(w.at(i).release, w.at(i - 1).release);
    }
    EXPECT_DOUBLE_EQ(w.at(i).comm_factor, 1.0);
    EXPECT_DOUBLE_EQ(w.at(i).comp_factor, 1.0);
  }
}

TEST(Workload, InhomogeneousPoissonMeanRateMatchesBaseRate) {
  // Thinning preserves the mean intensity: over many periods the observed
  // rate must approach base_rate regardless of modulation depth.
  util::Rng rng(6);
  const int n = 4000;
  const double base_rate = 2.0;
  const Workload w =
      Workload::inhomogeneous_poisson(n, base_rate, 0.9, 5.0, rng);
  const double observed = n / w.last_release();
  EXPECT_NEAR(observed, base_rate, 0.15 * base_rate);
}

TEST(Workload, InhomogeneousPoissonIsBurstierThanHomogeneous) {
  // With deep modulation, arrivals bunch at the crests: the variance of
  // inter-arrival gaps must exceed the homogeneous process's at equal mean
  // rate (for an exponential, variance == mean^2; crests/troughs push the
  // index of dispersion above 1).
  util::Rng rng(7);
  const int n = 4000;
  auto gap_stats = [](const Workload& w) {
    double mean = 0.0, var = 0.0;
    const int gaps = w.size() - 1;
    for (TaskId i = 1; i < w.size(); ++i) {
      mean += w.at(i).release - w.at(i - 1).release;
    }
    mean /= gaps;
    for (TaskId i = 1; i < w.size(); ++i) {
      const double d = (w.at(i).release - w.at(i - 1).release) - mean;
      var += d * d;
    }
    return std::pair<double, double>(mean, var / gaps);
  };
  const auto [hom_mean, hom_var] =
      gap_stats(Workload::poisson(n, 2.0, rng));
  const auto [ipp_mean, ipp_var] =
      gap_stats(Workload::inhomogeneous_poisson(n, 2.0, 1.0, 20.0, rng));
  EXPECT_GT(ipp_var / (ipp_mean * ipp_mean),
            1.2 * hom_var / (hom_mean * hom_mean));
}

TEST(Workload, InhomogeneousPoissonNeverEmitsAtZeroIntensity) {
  // Regression for the thinning acceptance test: at full modulation the
  // trough intensity is exactly 0 and `u * peak <= rate` accepted a drawn
  // u == 0.0 there — a task emitted at an instant of provably zero rate.
  // The strict `<` makes zero-rate instants unreachable; every accepted
  // arrival must sit at strictly positive intensity, and deep troughs must
  // stay (near-)empty of arrivals.
  const double base_rate = 2.0;
  const double period = 10.0;
  const double two_pi = 2.0 * 3.14159265358979323846;
  int deep_trough_arrivals = 0;
  int total = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    util::Rng rng(900 + seed);
    const Workload w =
        Workload::inhomogeneous_poisson(300, base_rate, 1.0, period, rng);
    ASSERT_EQ(w.size(), 300);
    for (TaskId i = 0; i < w.size(); ++i) {
      const double t = w.at(i).release;
      const double rate = base_rate * (1.0 + std::sin(two_pi * t / period));
      EXPECT_GT(rate, 0.0) << "arrival at zero-intensity instant t=" << t;
      // Fraction of the cycle where intensity < 2% of base: acceptance
      // probability < 1%, so arrivals there must be vanishingly rare.
      if (rate < 0.02 * base_rate) ++deep_trough_arrivals;
      ++total;
    }
  }
  EXPECT_LE(deep_trough_arrivals, total / 100);
}

TEST(Workload, InhomogeneousPoissonRejectsBadParameters) {
  util::Rng rng(8);
  EXPECT_THROW(Workload::inhomogeneous_poisson(10, 0.0, 0.5, 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(Workload::inhomogeneous_poisson(10, 1.0, -0.1, 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(Workload::inhomogeneous_poisson(10, 1.0, 1.5, 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(Workload::inhomogeneous_poisson(10, 1.0, 0.5, 0.0, rng),
               std::invalid_argument);
}

TEST(Workload, ParetoSizesAreHeavyTailedUnitMeanAndCapped) {
  util::Rng rng(9);
  const double alpha = 1.5, cap = 20.0;
  const Workload w =
      Workload::all_at_zero(5000).with_pareto_sizes(alpha, cap, rng);
  // Support after truncation + exact-unit-mean renormalization:
  // [x_m, cap] / E[min(X, cap)].
  const double x_m = (alpha - 1.0) / alpha;
  const double truncated_mean =
      x_m / (alpha - 1.0) * (alpha - std::pow(x_m / cap, alpha - 1.0));
  double mean = 0.0, largest = 0.0;
  for (TaskId i = 0; i < w.size(); ++i) {
    // Shipping and compute scale together: one payload, one size.
    EXPECT_DOUBLE_EQ(w.at(i).comm_factor, w.at(i).comp_factor);
    EXPECT_GE(w.at(i).comp_factor, x_m / truncated_mean - 1e-12);
    EXPECT_LE(w.at(i).comp_factor, cap / truncated_mean + 1e-12);
    mean += w.at(i).comp_factor;
    largest = std::max(largest, w.at(i).comp_factor);
  }
  mean /= w.size();
  // Exactly unit-mean in expectation — the campaign's load calibration
  // relies on it — so only sampling noise separates the empirical mean
  // from 1.
  EXPECT_NEAR(mean, 1.0, 0.06);
  EXPECT_GT(largest, 5.0);  // the tail actually reaches far out
}

TEST(Workload, ParetoSizesRejectBadParameters) {
  util::Rng rng(10);
  const Workload w = Workload::all_at_zero(3);
  EXPECT_THROW(w.with_pareto_sizes(1.0, 20.0, rng), std::invalid_argument);
  EXPECT_THROW(w.with_pareto_sizes(1.5, 0.5, rng), std::invalid_argument);
}

TEST(Workload, AtRejectsOutOfRange) {
  const Workload w = Workload::all_at_zero(2);
  EXPECT_THROW(w.at(-1), std::out_of_range);
  EXPECT_THROW(w.at(2), std::out_of_range);
}

TEST(WorkloadIo, RejectsNonNumbersWithTheLineNumber) {
  // "abc 1 1" was skipped as if blank, "1 abc" read as a release of 1.
  for (const char* text : {"0\nabc 1 1\n", "0\n1 abc\n", "0\nnan\n",
                           "0\n1 inf 1\n", "0\n0.5x\n", "0\n1e999\n"}) {
    try {
      parse_workload(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("workload line 2"),
                std::string::npos)
          << error.what();
    }
  }
  EXPECT_THROW(parse_workload("0 1 1 1\n"), std::invalid_argument);
}

}  // namespace
}  // namespace msol::core
