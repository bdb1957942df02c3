#include "experiments/spec_fit.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "algorithms/policy_spec.hpp"
#include "algorithms/registry.hpp"
#include "util/parse.hpp"

namespace msol::experiments {

namespace {

/// Quote-aware CSV field splitter (the subset CsvSink emits: RFC-4180
/// doubled-quote escaping, no embedded newlines in the rows we read).
std::vector<std::string> split_csv_row(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  fields.push_back(std::move(field));
  return fields;
}

std::vector<double> l1_normalize(std::vector<double> w) {
  double total = 0.0;
  for (double x : w) {
    if (!std::isfinite(x)) return {};
    total += std::abs(x);
  }
  if (total <= 0.0) return {};
  for (double& x : w) x /= total;
  return w;
}

/// Solves A x = b (n x n, A overwritten) by Gaussian elimination with
/// partial pivoting; returns empty on a (numerically) singular system.
std::vector<double> solve_linear(std::vector<std::vector<double>> a,
                                 std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    if (std::abs(a[pivot][col]) < 1e-12) return {};
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t r = n; r-- > 0;) {
    double acc = b[r];
    for (std::size_t c = r + 1; c < n; ++c) acc -= a[r][c] * x[c];
    x[r] = acc / a[r][r];
  }
  return x;
}

}  // namespace

std::vector<double> feature_weights_for(const std::string& spec) {
  algorithms::PolicySpec parsed;
  try {
    parsed = algorithms::parse_policy_spec(spec);
  } catch (const std::invalid_argument&) {
    return {};
  }
  // Only the default filter/tie/gate composition lives in rank:linear
  // space — a throttled or paced variant of the same ranker is a different
  // policy and would contaminate the fit.
  if (parsed.filter != algorithms::FilterKind::kAll ||
      parsed.tie != algorithms::TieKind::kIndex || parsed.eps != 0.0 ||
      parsed.gate != algorithms::GateKind::kAlways) {
    return {};
  }
  const int n = algorithms::kLinearFeatureCount;
  std::vector<double> w(static_cast<std::size_t>(n), 0.0);
  switch (parsed.ranker) {
    case algorithms::RankerKind::kLinear:
      return l1_normalize(parsed.linear_w);
    case algorithms::RankerKind::kCompletion: w[0] = 1.0; return w;
    case algorithms::RankerKind::kComm: w[1] = 1.0; return w;
    case algorithms::RankerKind::kComp: w[2] = 1.0; return w;
    case algorithms::RankerKind::kQueue: w[3] = 1.0; return w;
    case algorithms::RankerKind::kReady: w[4] = 1.0; return w;
    default: return {};
  }
}

std::vector<FitSample> load_fit_samples(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::invalid_argument("spec_fit: empty CSV (no header)");
  }
  const std::vector<std::string> header = split_csv_row(line);
  const auto column = [&](const std::string& name) {
    const auto it = std::find(header.begin(), header.end(), name);
    if (it == header.end()) {
      throw std::invalid_argument("spec_fit: CSV header lacks column '" +
                                  name + "'");
    }
    return static_cast<std::size_t>(it - header.begin());
  };
  const std::size_t arrival_col = column("arrival");
  const std::size_t avail_col = column("avail");
  const std::size_t spec_col = column("spec");
  const std::size_t value_col = column("norm_makespan_mean");

  std::vector<FitSample> samples;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_csv_row(line);
    const std::size_t needed =
        std::max({arrival_col, avail_col, spec_col, value_col});
    if (fields.size() <= needed) continue;  // torn tail line after a kill
    std::vector<double> weights = feature_weights_for(fields[spec_col]);
    if (weights.empty()) continue;
    // An unparsable value is skipped like a torn row, not an error.
    const std::optional<double> value = util::parse_double(fields[value_col]);
    if (!value) continue;
    FitSample sample;
    sample.regime = fields[arrival_col] + "/" + fields[avail_col];
    sample.weights = std::move(weights);
    sample.norm_makespan = *value;
    samples.push_back(std::move(sample));
  }
  return samples;
}

std::vector<FitSample> load_fit_samples_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("spec_fit: cannot open '" + path + "'");
  }
  return load_fit_samples(in);
}

std::vector<double> project_to_simplex(std::vector<double> v) {
  // Held–Wolfe–Crowder: sort descending, find the largest k with
  // u_k + (1 - sum_{i<=k} u_i) / k > 0, shift and clip.
  std::vector<double> u = v;
  std::sort(u.begin(), u.end(), std::greater<double>());
  double cumsum = 0.0;
  double theta = 0.0;
  int k = 0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    cumsum += u[i];
    const double t = (cumsum - 1.0) / static_cast<double>(i + 1);
    if (u[i] - t > 0.0) {
      theta = t;
      k = static_cast<int>(i + 1);
    }
  }
  if (k == 0) {  // degenerate: uniform
    std::fill(v.begin(), v.end(), 1.0 / static_cast<double>(v.size()));
    return v;
  }
  for (double& x : v) x = std::max(0.0, x - theta);
  return v;
}

std::vector<FitResult> fit_linear_weights(
    const std::vector<FitSample>& samples) {
  const int f = algorithms::kLinearFeatureCount;
  const int n = f + 1;  // intercept + per-feature slopes
  std::map<std::string, std::vector<const FitSample*>> by_regime;
  for (const FitSample& s : samples) {
    if (static_cast<int>(s.weights.size()) == f) {
      by_regime[s.regime].push_back(&s);
    }
  }

  std::vector<FitResult> results;
  for (const auto& [regime, rows] : by_regime) {
    // Need at least two distinct weight points to see a slope.
    bool distinct = false;
    for (std::size_t i = 1; i < rows.size() && !distinct; ++i) {
      distinct = rows[i]->weights != rows[0]->weights;
    }
    if (!distinct) continue;

    // Ridge normal equations (X^T X + lambda I) c = X^T y, X = [1 | w].
    // The simplex constraint makes [1 | w] rank-deficient (weights sum to
    // 1), so the ridge term is what pins a unique solution; it shrinks the
    // slopes toward zero symmetrically and leaves their ordering intact.
    const double lambda = 1e-6 * static_cast<double>(rows.size());
    std::vector<std::vector<double>> ata(
        static_cast<std::size_t>(n),
        std::vector<double>(static_cast<std::size_t>(n), 0.0));
    std::vector<double> aty(static_cast<std::size_t>(n), 0.0);
    for (const FitSample* row : rows) {
      std::vector<double> x(static_cast<std::size_t>(n), 1.0);
      for (int j = 0; j < f; ++j) {
        x[static_cast<std::size_t>(j + 1)] =
            row->weights[static_cast<std::size_t>(j)];
      }
      for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
          ata[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] +=
              x[static_cast<std::size_t>(r)] * x[static_cast<std::size_t>(c)];
        }
        aty[static_cast<std::size_t>(r)] +=
            x[static_cast<std::size_t>(r)] * row->norm_makespan;
      }
    }
    for (int r = 0; r < n; ++r) {
      ata[static_cast<std::size_t>(r)][static_cast<std::size_t>(r)] += lambda;
    }
    const std::vector<double> coef = solve_linear(ata, aty);
    if (coef.empty()) continue;

    FitResult fit;
    fit.regime = regime;
    fit.samples = static_cast<int>(rows.size());
    fit.intercept = coef[0];
    fit.beta.assign(coef.begin() + 1, coef.end());

    // A feature no sample ever put weight on has no data behind its slope
    // (ridge leaves it at ~0, which would out-score every measured cost);
    // the recommendation may only redistribute over exercised features.
    std::vector<bool> exercised(static_cast<std::size_t>(f), false);
    for (const FitSample* row : rows) {
      for (int j = 0; j < f; ++j) {
        if (row->weights[static_cast<std::size_t>(j)] != 0.0) {
          exercised[static_cast<std::size_t>(j)] = true;
        }
      }
    }

    // Recommend argmin_{w in simplex} beta.w + mu ||w||^2. The closed form
    // is the simplex projection of -beta / (2 mu); mu is set from the beta
    // spread so the blend softens the winner-take-all vertex without
    // drowning the signal.
    double lo = 0.0, hi = 0.0;
    bool first = true;
    for (int j = 0; j < f; ++j) {
      if (!exercised[static_cast<std::size_t>(j)]) continue;
      const double b = fit.beta[static_cast<std::size_t>(j)];
      lo = first ? b : std::min(lo, b);
      hi = first ? b : std::max(hi, b);
      first = false;
    }
    const double mu = std::max(0.25 * (hi - lo), 1e-9);
    std::vector<double> sub;
    std::vector<int> sub_index;
    for (int j = 0; j < f; ++j) {
      if (!exercised[static_cast<std::size_t>(j)]) continue;
      sub.push_back(-fit.beta[static_cast<std::size_t>(j)] / (2.0 * mu));
      sub_index.push_back(j);
    }
    const std::vector<double> sub_w = project_to_simplex(std::move(sub));
    fit.recommended.assign(static_cast<std::size_t>(f), 0.0);
    for (std::size_t k = 0; k < sub_index.size(); ++k) {
      fit.recommended[static_cast<std::size_t>(sub_index[k])] = sub_w[k];
    }

    algorithms::PolicySpec spec;
    spec.ranker = algorithms::RankerKind::kLinear;
    spec.linear_w = fit.recommended;
    fit.spec = algorithms::to_string(spec);
    results.push_back(std::move(fit));
  }
  return results;
}

std::vector<RobustSpecResult> robust_spec_search(
    const std::vector<std::string>& specs,
    const std::vector<platform::PlatformClass>& classes,
    const theory::SearchConfig& base) {
  std::vector<RobustSpecResult> out;
  for (platform::PlatformClass cls : classes) {
    for (const std::string& spec : specs) {
      theory::SearchConfig config = base;
      config.platform_class = cls;
      auto scheduler = algorithms::make_scheduler(spec);
      const theory::SearchResult found =
          theory::adversarial_search(*scheduler, config);
      RobustSpecResult entry;
      entry.platform_class = cls;
      entry.spec = spec;
      entry.worst_ratio = found.ratio;
      out.push_back(std::move(entry));
    }
  }
  return out;
}

}  // namespace msol::experiments
