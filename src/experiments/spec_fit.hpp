#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "platform/platform.hpp"
#include "theory/search.hpp"

namespace msol::experiments {

/// Offline fitting of rank:linear weights from sweep output, plus a
/// robustness search over candidate spec strings (the `msol_run fit`
/// subcommand drives both).
///
/// The data source is a grid sweep CSV (CsvSink format): every row whose
/// policy spec is expressible as a point in rank:linear weight space —
/// rank:linear itself, or a pure single-feature ranker, which is a simplex
/// vertex — becomes one (weights, norm_makespan) sample in its row's
/// regime. (tests/test_paper.cpp builds its samples from run_campaign
/// results directly.) A least-squares fit per regime then asks
/// which direction in weight space lowers normalized makespan, and the
/// recommended weights are the simplex point minimizing the fitted cost
/// under a quadratic blend regularizer (an unregularized linear fit would
/// always recommend a degenerate single-feature vertex).

/// One usable sweep row.
struct FitSample {
  std::string regime;           ///< "<arrival>/<avail>" of the row's cell
  std::vector<double> weights;  ///< L1-normalized, kLinearFeatureCount long
  double norm_makespan = 0.0;   ///< the row's norm_makespan_mean
};

/// Maps a policy spec string to its point in linear-feature weight space,
/// L1-normalized: rank:linear passes its weights through; the five pure
/// single-feature rankers (completion, comm, comp, queue, ready — with the
/// all/index/always defaults for the other components) are simplex
/// vertices. Returns empty for anything else (cyclic, plan, wrr, const
/// rankers; non-trivial filters, ties, or gates).
std::vector<double> feature_weights_for(const std::string& spec);

/// Parses a CsvSink-format sweep CSV (quote-aware), keeping the rows
/// feature_weights_for() accepts. Requires the header columns `arrival`,
/// `avail`, `spec`, and `norm_makespan_mean`; throws std::invalid_argument
/// when they are missing. Rows with a non-finite norm_makespan_mean (e.g.
/// an SRPT-less sweep) are skipped.
std::vector<FitSample> load_fit_samples(std::istream& in);

/// Convenience file wrapper; throws std::runtime_error if unreadable.
std::vector<FitSample> load_fit_samples_file(const std::string& path);

/// The fit for one regime.
struct FitResult {
  std::string regime;
  int samples = 0;
  double intercept = 0.0;
  /// Per-feature cost slopes from the ridge least-squares fit; lower means
  /// leaning on that feature predicts lower normalized makespan.
  std::vector<double> beta;
  /// argmin_{w in simplex} beta.w + mu ||w||^2 with mu set from the beta
  /// spread — the blend the fit recommends.
  std::vector<double> recommended;
  /// Canonical policy spec of the recommendation (rank:linear:...).
  std::string spec;
};

/// Groups samples by regime and fits each; regimes with fewer than two
/// distinct weight points are dropped (nothing to regress). Deterministic.
std::vector<FitResult> fit_linear_weights(const std::vector<FitSample>& samples);

/// Euclidean projection onto the probability simplex (sum w = 1, w >= 0).
/// Exposed for tests.
std::vector<double> project_to_simplex(std::vector<double> v);

/// Spec-space robustness search: for every (platform class, candidate spec)
/// pair, runs theory::adversarial_search against the spec's scheduler and
/// records the worst-case (algorithm / offline optimum) ratio found.
struct RobustSpecResult {
  platform::PlatformClass platform_class =
      platform::PlatformClass::kFullyHeterogeneous;
  std::string spec;
  double worst_ratio = 1.0;
};

/// All (class, spec) pairs in input order; the most robust composition per
/// class is the one minimizing worst_ratio. `base` supplies instance size,
/// iteration budget, and seed (platform_class is overridden per entry).
std::vector<RobustSpecResult> robust_spec_search(
    const std::vector<std::string>& specs,
    const std::vector<platform::PlatformClass>& classes,
    const theory::SearchConfig& base);

}  // namespace msol::experiments
