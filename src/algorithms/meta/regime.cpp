#include "algorithms/meta/regime.hpp"

#include <stdexcept>

namespace msol::algorithms::meta {

std::string to_string(Regime regime) {
  switch (regime) {
    case Regime::kCalm: return "calm";
    case Regime::kBursty: return "bursty";
    case Regime::kChurn: return "churn";
  }
  return "unknown";
}

RegimeDetector::RegimeDetector(RegimeConfig config) : config_(config) {
  if (config_.window < 2) {
    throw std::invalid_argument("RegimeDetector: window must be >= 2");
  }
  if (config_.hysteresis < 1) {
    throw std::invalid_argument("RegimeDetector: hysteresis must be >= 1");
  }
}

void RegimeDetector::reset() {
  releases_.clear();
  last_online_.clear();
  flip_history_.clear();
  flips_in_window_ = 0;
  current_ = Regime::kCalm;
  candidate_ = Regime::kCalm;
  streak_ = 0;
}

void RegimeDetector::observe_release(core::Time time) {
  releases_.push_back(time);
  while (static_cast<int>(releases_.size()) > config_.window) {
    releases_.pop_front();
  }
}

Regime RegimeDetector::raw_verdict() const {
  if (flips_in_window_ > 0) return Regime::kChurn;
  // Burstiness needs a full window of releases before leaving calm — a
  // campaign's first few arrivals carry no dispersion evidence.
  const int gaps = static_cast<int>(releases_.size()) - 1;
  if (gaps < config_.window - 1) return Regime::kCalm;
  double mean = 0.0;
  for (int i = 0; i < gaps; ++i) {
    mean += releases_[static_cast<std::size_t>(i + 1)] -
            releases_[static_cast<std::size_t>(i)];
  }
  mean /= gaps;
  if (mean <= core::kTimeEps) return Regime::kBursty;  // simultaneous bursts
  double var = 0.0;
  for (int i = 0; i < gaps; ++i) {
    const double gap = releases_[static_cast<std::size_t>(i + 1)] -
                       releases_[static_cast<std::size_t>(i)];
    var += (gap - mean) * (gap - mean);
  }
  var /= gaps;
  return var / (mean * mean) >= config_.burst_cv2 ? Regime::kBursty
                                                  : Regime::kCalm;
}

void RegimeDetector::observe(const core::EngineView& view) {
  const core::SlaveStateView s = view.slave_state();
  const int m = s.m;
  int flips = 0;
  if (last_online_.empty()) {
    last_online_.resize(static_cast<std::size_t>(m));
    for (core::SlaveId j = 0; j < m; ++j) {
      last_online_[static_cast<std::size_t>(j)] = s.is_online(j);
    }
  } else {
    for (core::SlaveId j = 0; j < m; ++j) {
      const bool online = s.is_online(j);
      if (online != last_online_[static_cast<std::size_t>(j)]) ++flips;
      last_online_[static_cast<std::size_t>(j)] = online;
    }
  }
  flip_history_.push_back(flips);
  flips_in_window_ += flips;
  while (static_cast<int>(flip_history_.size()) > config_.window) {
    flips_in_window_ -= flip_history_.front();
    flip_history_.pop_front();
  }

  // Debounce: the reported regime moves only after `hysteresis`
  // consecutive identical divergent verdicts.
  const Regime raw = raw_verdict();
  if (raw == current_) {
    candidate_ = current_;
    streak_ = 0;
    return;
  }
  if (raw != candidate_) {
    candidate_ = raw;
    streak_ = 0;
  }
  ++streak_;
  if (streak_ >= config_.hysteresis) {
    current_ = raw;
    candidate_ = raw;
    streak_ = 0;
  }
}

}  // namespace msol::algorithms::meta
