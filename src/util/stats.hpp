#pragma once

#include <cstddef>
#include <vector>

namespace msol::util {

/// Summary statistics of a sample, as reported in campaign tables.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
  /// Half-width of the 95% confidence interval on the mean, using the
  /// Student-t critical value for count-1 degrees of freedom (the normal
  /// z=1.96 understates the interval at the <=10 platform replications
  /// typical here: t is 2.262 at n=10 and 12.706 at n=2). Zero for n<2.
  double ci95_half_width = 0.0;
};

/// Computes summary statistics; returns a zeroed Summary for empty input.
Summary summarize(const std::vector<double>& values);

/// Two-sided 95% Student-t critical value for `df` degrees of freedom:
/// exact table through df = 30, stepped values to df = 120, then the
/// normal limit 1.96. Returns 0 for df = 0 (no interval is defined).
double t_critical_95(std::size_t df);

/// Arithmetic mean; 0 for empty input.
double mean(const std::vector<double>& values);

}  // namespace msol::util
