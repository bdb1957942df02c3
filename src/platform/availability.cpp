#include "platform/availability.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace msol::platform {

AvailabilityProfile::AvailabilityProfile(std::vector<AvailabilitySpan> spans)
    : spans_(std::move(spans)) {
  core::Time prev = -1.0;
  for (const AvailabilitySpan& span : spans_) {
    if (span.begin < 0.0) {
      throw std::invalid_argument(
          "AvailabilityProfile: span begins must be >= 0");
    }
    if (span.begin <= prev) {
      throw std::invalid_argument(
          "AvailabilityProfile: span begins must be strictly increasing");
    }
    if (!(span.speed > 0.0) || !std::isfinite(span.speed)) {
      throw std::invalid_argument(
          "AvailabilityProfile: speeds must be positive and finite");
    }
    prev = span.begin;
  }
}

std::size_t AvailabilityProfile::span_index_at(core::Time t) const {
  // Last span with begin <= t. upper_bound finds the first span strictly
  // after t; one before it (if any) governs t.
  const auto it = std::upper_bound(
      spans_.begin(), spans_.end(), t,
      [](core::Time v, const AvailabilitySpan& s) { return v < s.begin; });
  if (it == spans_.begin()) return static_cast<std::size_t>(-1);
  return static_cast<std::size_t>(it - spans_.begin()) - 1;
}

bool AvailabilityProfile::online_at(core::Time t) const {
  const std::size_t i = span_index_at(t);
  return i == static_cast<std::size_t>(-1) || spans_[i].online;
}

double AvailabilityProfile::speed_at(core::Time t) const {
  const std::size_t i = span_index_at(t);
  return i == static_cast<std::size_t>(-1) ? 1.0 : spans_[i].speed;
}

std::optional<core::Time> AvailabilityProfile::next_offline_after(
    core::Time t) const {
  // Called once per engine commit: binary-search to the governing span and
  // walk forward, instead of scanning the (possibly long, under churn)
  // prefix of already-past spans every time.
  const std::size_t i = span_index_at(t);
  bool online = i == static_cast<std::size_t>(-1) || spans_[i].online;
  for (std::size_t k = i + 1; k < spans_.size(); ++k) {  // -1 wraps to 0
    if (online && !spans_[k].online) return spans_[k].begin;
    online = spans_[k].online;
  }
  return std::nullopt;
}

double AvailabilityProfile::online_work_between(core::Time t0,
                                                core::Time t1) const {
  if (t1 <= t0) return 0.0;
  double work = 0.0;
  core::Time cursor = t0;
  std::size_t i = span_index_at(t0);
  for (;;) {
    const bool online = i == static_cast<std::size_t>(-1) || spans_[i].online;
    const double speed =
        i == static_cast<std::size_t>(-1) ? 1.0 : spans_[i].speed;
    const std::size_t next = i + 1;  // -1 wraps to 0: the first span
    const core::Time segment_end =
        next < spans_.size() ? std::min(spans_[next].begin, t1) : t1;
    if (online) work += speed * (segment_end - cursor);
    cursor = segment_end;
    if (cursor >= t1) return work;
    i = next;
  }
}

AvailabilityProfile::WorkResult AvailabilityProfile::run_work(
    core::Time start, double work, core::Time until) const {
  WorkResult result;
  core::Time cursor = start;
  std::size_t i = span_index_at(start);
  while (cursor < until) {
    const double speed =
        i == static_cast<std::size_t>(-1) ? 1.0 : spans_[i].speed;
    const std::size_t next = i + 1;
    const core::Time segment_end =
        next < spans_.size() ? std::min(spans_[next].begin, until) : until;
    const double capacity = speed * (segment_end - cursor);
    const double remaining = work - result.work_done;
    if (remaining <= capacity) {
      result.completed = true;
      result.end = cursor + remaining / speed;
      result.work_done = work;
      return result;
    }
    result.work_done += capacity;
    cursor = segment_end;
    i = next;
  }
  result.end = until;
  return result;
}

std::string to_string(AvailabilityModel model) {
  switch (model) {
    case AvailabilityModel::kAlways: return "always";
    case AvailabilityModel::kRareOutage: return "rare-outage";
    case AvailabilityModel::kChurn: return "churn";
    case AvailabilityModel::kDrift: return "drift";
  }
  return "unknown";
}

std::vector<AvailabilityProfile> generate_availability(
    AvailabilityModel model, int num_slaves, double mtbf, double outage_frac,
    core::Time horizon, util::Rng& rng) {
  if (num_slaves <= 0) {
    throw std::invalid_argument(
        "generate_availability: num_slaves must be > 0");
  }
  if (model == AvailabilityModel::kAlways) {
    // Deliberately before any rng use: the always model must not perturb
    // the streams of workload/platform draws that precede it.
    return std::vector<AvailabilityProfile>(
        static_cast<std::size_t>(num_slaves));
  }
  if (!(mtbf > 0.0) || !std::isfinite(mtbf)) {
    throw std::invalid_argument("generate_availability: mtbf must be > 0");
  }
  if (!(horizon > 0.0) || !std::isfinite(horizon)) {
    throw std::invalid_argument("generate_availability: horizon must be > 0");
  }
  if (outage_frac < 0.0 || outage_frac > 0.9) {
    throw std::invalid_argument(
        "generate_availability: outage_frac must be in [0, 0.9]");
  }
  if (model != AvailabilityModel::kRareOutage) {
    // Churn and drift draw about horizon / mtbf transitions per slave, all
    // held in memory at once: refuse a realization that could not fit.
    const double expected = num_slaves * horizon / mtbf;
    if (expected > kMaxExpectedTransitions) {
      std::ostringstream msg;
      msg << "generate_availability: num_slaves * horizon / mtbf = "
          << num_slaves << " * " << horizon << " / " << mtbf << " = "
          << expected << " expected transitions exceeds the limit of "
          << kMaxExpectedTransitions;
      throw std::invalid_argument(msg.str());
    }
  }

  std::vector<AvailabilityProfile> profiles;
  profiles.reserve(static_cast<std::size_t>(num_slaves));
  for (int j = 0; j < num_slaves; ++j) {
    std::vector<AvailabilitySpan> spans;
    switch (model) {
      case AvailabilityModel::kAlways:
        break;  // unreachable; handled above
      case AvailabilityModel::kRareOutage: {
        // Half the fleet suffers one long outage; the rest stay clean, so a
        // campaign sees both disturbed and pristine slaves side by side.
        const bool hit = rng.chance(0.5);
        const core::Time len = outage_frac * horizon;
        const core::Time start = rng.uniform(0.0, horizon);
        if (hit && len > 0.0) {
          spans.push_back(AvailabilitySpan{start, false, 1.0});
          spans.push_back(AvailabilitySpan{start + len, true, 1.0});
        }
        break;
      }
      case AvailabilityModel::kChurn: {
        // Alternating exponential holding times tuned so the long-run
        // offline fraction is outage_frac and online stretches average
        // `mtbf`. Every down span is immediately followed by its recovery,
        // so the final state is always online.
        const double up_mean = mtbf;
        const double down_mean =
            outage_frac > 0.0 ? mtbf * outage_frac / (1.0 - outage_frac)
                              : 0.0;
        core::Time t = rng.exponential(1.0 / up_mean);
        while (t < horizon && down_mean > 0.0) {
          const core::Time down = rng.exponential(1.0 / down_mean);
          spans.push_back(AvailabilitySpan{t, false, 1.0});
          spans.push_back(AvailabilitySpan{t + down, true, 1.0});
          t += down + rng.exponential(1.0 / up_mean);
        }
        break;
      }
      case AvailabilityModel::kDrift: {
        // Piecewise-constant speed wandering in [0.5, 1.5]; never offline.
        core::Time t = rng.exponential(1.0 / mtbf);
        while (t < horizon) {
          spans.push_back(AvailabilitySpan{t, true, rng.uniform(0.5, 1.5)});
          t += rng.exponential(1.0 / mtbf);
        }
        break;
      }
    }
    profiles.emplace_back(std::move(spans));
  }
  return profiles;
}

}  // namespace msol::platform
