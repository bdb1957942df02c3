#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace msol::platform {

/// One piece of a slave's availability timeline: from `begin` until the next
/// span's begin (or forever, for the last span) the slave is `online` (or
/// not) and, while online, computes at `speed` times its nominal rate
/// (speed 1.0 = the calibrated p_j; 2.0 = twice as fast). The `speed` of an
/// offline span is retained only so a profile can resume the previous drift
/// level when the slave returns; it buys no compute while offline.
struct AvailabilitySpan {
  core::Time begin = 0.0;
  bool online = true;
  double speed = 1.0;
};

/// Deterministic, fully-known-in-advance availability timeline of one slave.
///
/// An empty profile is the paper's static slave: always online at nominal
/// speed. Profiles are *realizations*, not stochastic processes — the engine
/// replays them exactly, which is what keeps grid cells byte-identical
/// across thread counts and kill/resume cycles. Schedulers, however, only
/// observe the present (the online flags and current speeds of
/// EngineView::slave_state()): outages always arrive as surprises.
///
/// Implicit state before the first span: online, speed 1.0.
class AvailabilityProfile {
 public:
  AvailabilityProfile() = default;
  /// Throws std::invalid_argument unless begins are strictly increasing,
  /// non-negative, and every speed is positive and finite.
  explicit AvailabilityProfile(std::vector<AvailabilitySpan> spans);

  /// No spans at all: statically online at speed 1. The engine runs its
  /// original closed-form path when every profile is trivial.
  bool trivial() const { return spans_.empty(); }
  const std::vector<AvailabilitySpan>& spans() const { return spans_; }

  bool online_at(core::Time t) const;
  double speed_at(core::Time t) const;

  /// First instant strictly after `t` at which the slave transitions from
  /// online to offline; nullopt when it never goes down again.
  std::optional<core::Time> next_offline_after(core::Time t) const;

  /// Compute-speed integral over [t0, t1] counting offline stretches as
  /// zero progress. t1 < t0 integrates to 0.
  double online_work_between(core::Time t0, core::Time t1) const;

  /// Outcome of running `work` nominal-seconds of compute from `start`.
  struct WorkResult {
    bool completed = false;
    core::Time end = 0.0;   ///< completion instant when completed
    double work_done = 0.0; ///< nominal-seconds finished by `until` otherwise
  };

  /// Advances `work` nominal-seconds of compute starting at `start`,
  /// honoring the piecewise speed, stopping at `until` (exclusive) if the
  /// work is unfinished by then. The caller guarantees the slave is online
  /// throughout [start, until) — the engine only starts computes on online
  /// slaves and cuts them at the next offline transition.
  WorkResult run_work(core::Time start, double work, core::Time until) const;

 private:
  /// Index of the last span with begin <= t, or npos for "before all spans".
  std::size_t span_index_at(core::Time t) const;

  std::vector<AvailabilitySpan> spans_;
};

/// The availability regimes a scenario grid can sweep (`avail` axis).
enum class AvailabilityModel {
  kAlways,      ///< the paper's static platform; draws nothing from the rng
  kRareOutage,  ///< at most one long outage per slave over the horizon
  kChurn,       ///< repeated short up/down cycles (exponential holding times)
  kDrift,       ///< no outages; piecewise speed wandering around nominal
};

std::string to_string(AvailabilityModel model);

/// Upper bound on num_slaves * horizon / mtbf, the expected number of
/// transitions a churn or drift realization holds (about 24 bytes each, two
/// per churn cycle). Thirty times the largest committed grid's 3.3e5.
inline constexpr double kMaxExpectedTransitions = 1e7;

/// Draws one profile per slave for the requested model.
///
///   mtbf        mean online time between failures (kChurn) / mean interval
///               between speed changes (kDrift), in simulated seconds
///   outage_frac target fraction of the horizon spent offline, in [0, 0.9]
///   horizon     campaign length the profile must cover; every generated
///               profile ends online so a campaign can always drain (beyond
///               the horizon the final span's state persists)
///
/// kAlways returns all-trivial profiles *without touching the rng*, so
/// adding the avail axis to a grid cannot shift the streams of cells that
/// do not use it. Throws std::invalid_argument on non-positive mtbf/horizon,
/// outage_frac outside [0, 0.9], or (churn and drift) num_slaves * horizon /
/// mtbf above kMaxExpectedTransitions.
std::vector<AvailabilityProfile> generate_availability(
    AvailabilityModel model, int num_slaves, double mtbf, double outage_frac,
    core::Time horizon, util::Rng& rng);

}  // namespace msol::platform
