#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace msol::platform {

/// One slave of the master-slave platform, in the paper's notation:
/// `comm` is c_j (time the master's port is busy shipping one unit task to
/// this slave) and `comp` is p_j (time this slave computes one unit task).
struct SlaveSpec {
  core::Time comm = 0.0;  ///< c_j > 0
  core::Time comp = 0.0;  ///< p_j > 0
};

/// The four platform classes of the paper's evaluation (Sec 4.3).
enum class PlatformClass {
  kFullyHomogeneous,    ///< c_j = c and p_j = p
  kCommHomogeneous,     ///< c_j = c, heterogeneous p_j (Sec 3.2)
  kCompHomogeneous,     ///< p_j = p, heterogeneous c_j (Sec 3.3)
  kFullyHeterogeneous,  ///< both heterogeneous (Sec 3.4)
};

std::string to_string(PlatformClass cls);

/// A one-port master-slave platform: the master plus m slaves P_0..P_{m-1}.
///
/// Immutable after construction. Slave indices are 0-based throughout the
/// code base (the paper's P_1..P_m map to 0..m-1).
class Platform {
 public:
  /// Throws std::invalid_argument on empty slave list or non-positive c/p.
  explicit Platform(std::vector<SlaveSpec> slaves);

  int size() const { return static_cast<int>(slaves_.size()); }
  core::Time comm(core::SlaveId j) const { return at(j).comm; }
  core::Time comp(core::SlaveId j) const { return at(j).comp; }
  const SlaveSpec& at(core::SlaveId j) const;
  const std::vector<SlaveSpec>& slaves() const { return slaves_; }

  /// Identity of this slave list: copies share it, separate constructions
  /// never do (a process-wide counter). Caches derived from the slave list
  /// (the static and cyclic rankers' fixed slave orders) key on it rather
  /// than on the object's address, which an engine reuses across loads.
  std::uint64_t uid() const { return uid_; }

  /// Contiguous per-field mirrors of the slave list (structure-of-arrays),
  /// for the batched ranking kernel (core/rank_kernel.hpp): probing m slaves
  /// walks two dense double arrays instead of striding through SlaveSpec
  /// pairs. Built once at construction — the platform is immutable.
  const core::Time* comm_data() const { return comm_.data(); }
  const core::Time* comp_data() const { return comp_.data(); }

  /// True when all c_j agree within tolerance (the paper's "cj = c").
  bool comm_homogeneous(double tol = 1e-12) const;
  /// True when all p_j agree within tolerance (the paper's "pj = p").
  bool comp_homogeneous(double tol = 1e-12) const;
  bool fully_homogeneous(double tol = 1e-12) const;
  PlatformClass classify(double tol = 1e-12) const;

  core::Time min_comm() const;
  core::Time max_comm() const;
  core::Time min_comp() const;
  core::Time max_comp() const;

  /// Heterogeneity indices: max/min ratios (1.0 means homogeneous).
  double comm_heterogeneity() const { return max_comm() / min_comm(); }
  double comp_heterogeneity() const { return max_comp() / min_comp(); }

  /// Slave ids sorted ascending by c_j (ties by id). RRC's ordering.
  std::vector<core::SlaveId> order_by_comm() const;
  /// Slave ids sorted ascending by p_j (ties by id). RRP's ordering.
  std::vector<core::SlaveId> order_by_comp() const;
  /// Slave ids sorted ascending by c_j + p_j (ties by id). RR's ordering.
  std::vector<core::SlaveId> order_by_comm_plus_comp() const;

  /// Aggregate task throughput 1/p summed over slaves (tasks per time unit
  /// the compute side can absorb, ignoring the master's port).
  double aggregate_compute_rate() const;

  /// Convenience factory: m identical slaves.
  static Platform homogeneous(int m, core::Time c, core::Time p);

  std::string describe() const;

 private:
  std::vector<SlaveSpec> slaves_;
  std::vector<core::Time> comm_;  ///< SoA mirror of slaves_[j].comm
  std::vector<core::Time> comp_;  ///< SoA mirror of slaves_[j].comp
  std::uint64_t uid_ = 0;
};

}  // namespace msol::platform
