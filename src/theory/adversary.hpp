#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/schedule.hpp"
#include "core/scheduler.hpp"
#include "core/workload.hpp"
#include "platform/platform.hpp"
#include "theory/bounds.hpp"

namespace msol::theory {

/// What happened when an adversary played against one scheduler.
struct AdversaryOutcome {
  int theorem = 0;
  core::Objective objective = core::Objective::kMakespan;
  double bound = 0.0;           ///< the theorem's lower bound
  std::string branch;           ///< which proof branch the scheduler walked
  core::Workload realized;      ///< the tasks actually released
  core::Schedule alg_schedule;  ///< the scheduler's final schedule
  double alg_value = 0.0;       ///< scheduler's objective on the instance
  double opt_value = 0.0;       ///< exact off-line optimum (exhaustive)
  double ratio = 0.0;           ///< alg_value / opt_value
  std::string trace_dump;       ///< decision log, when run(.., true)
};

/// One of the paper's nine lower-bound constructions (Sec 3).
///
/// A theorem adversary owns a concrete platform and a decision tree: it
/// advances the engine to the proof's probe instants, inspects the
/// scheduler's committed choices, and releases further tasks (or stops)
/// exactly as the corresponding proof prescribes. The measured ratio of any
/// deterministic scheduler on the realized instance is then at least the
/// theorem's bound (asymptotically for Theorems 4, 8, 9, whose platforms
/// carry an epsilon/scale parameter).
class TheoremAdversary {
 public:
  virtual ~TheoremAdversary() = default;

  virtual int theorem() const = 0;
  virtual platform::Platform make_platform() const = 0;

  const TheoremInfo& info() const { return theorem_info(theorem()); }

  /// Plays the adversary game, finishes the schedule, and evaluates both
  /// sides. Resets the scheduler first. With `enable_trace` the outcome
  /// carries the engine's full decision log (adversary_demo narrates it).
  AdversaryOutcome run(core::OnlineScheduler& scheduler,
                       bool enable_trace = false) const;

 protected:
  /// The proof's decision tree: inject tasks / stop based on probes.
  /// Returns a short label of the branch taken (for reporting).
  virtual std::string drive(core::OnePortEngine& engine) const = 0;
};

/// Factory for one theorem (1..9).
///
/// `eps` is the proofs' epsilon where a platform needs one (Theorems 4, 5,
/// 7, 8, 9); `scale` is Theorem 8's c_1 (and Theorem 4's p), which must grow
/// for the measured ratio to approach the bound.
std::unique_ptr<TheoremAdversary> make_theorem_adversary(int number,
                                                         double eps = 1e-3,
                                                         double scale = 1e4);

/// All nine, in paper order, at the factory's default eps and scale.
std::vector<std::unique_ptr<TheoremAdversary>> all_theorem_adversaries();

}  // namespace msol::theory
