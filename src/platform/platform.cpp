#include "platform/platform.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace msol::platform {

std::string to_string(PlatformClass cls) {
  switch (cls) {
    case PlatformClass::kFullyHomogeneous: return "fully-homogeneous";
    case PlatformClass::kCommHomogeneous: return "comm-homogeneous";
    case PlatformClass::kCompHomogeneous: return "comp-homogeneous";
    case PlatformClass::kFullyHeterogeneous: return "fully-heterogeneous";
  }
  return "unknown";
}

Platform::Platform(std::vector<SlaveSpec> slaves) : slaves_(std::move(slaves)) {
  static std::atomic<std::uint64_t> next_uid{0};
  uid_ = ++next_uid;
  if (slaves_.empty()) {
    throw std::invalid_argument("Platform: needs at least one slave");
  }
  comm_.reserve(slaves_.size());
  comp_.reserve(slaves_.size());
  for (const SlaveSpec& s : slaves_) {
    if (!(s.comm > 0.0) || !(s.comp > 0.0)) {
      throw std::invalid_argument("Platform: c_j and p_j must be positive");
    }
    comm_.push_back(s.comm);
    comp_.push_back(s.comp);
  }
}

const SlaveSpec& Platform::at(core::SlaveId j) const {
  if (j < 0 || j >= size()) {
    throw std::out_of_range("Platform: slave id out of range");
  }
  return slaves_[static_cast<std::size_t>(j)];
}

bool Platform::comm_homogeneous(double tol) const {
  return max_comm() - min_comm() <= tol;
}

bool Platform::comp_homogeneous(double tol) const {
  return max_comp() - min_comp() <= tol;
}

bool Platform::fully_homogeneous(double tol) const {
  return comm_homogeneous(tol) && comp_homogeneous(tol);
}

PlatformClass Platform::classify(double tol) const {
  const bool ch = comm_homogeneous(tol);
  const bool ph = comp_homogeneous(tol);
  if (ch && ph) return PlatformClass::kFullyHomogeneous;
  if (ch) return PlatformClass::kCommHomogeneous;
  if (ph) return PlatformClass::kCompHomogeneous;
  return PlatformClass::kFullyHeterogeneous;
}

core::Time Platform::min_comm() const {
  return std::min_element(slaves_.begin(), slaves_.end(),
                          [](const SlaveSpec& a, const SlaveSpec& b) {
                            return a.comm < b.comm;
                          })
      ->comm;
}

core::Time Platform::max_comm() const {
  return std::max_element(slaves_.begin(), slaves_.end(),
                          [](const SlaveSpec& a, const SlaveSpec& b) {
                            return a.comm < b.comm;
                          })
      ->comm;
}

core::Time Platform::min_comp() const {
  return std::min_element(slaves_.begin(), slaves_.end(),
                          [](const SlaveSpec& a, const SlaveSpec& b) {
                            return a.comp < b.comp;
                          })
      ->comp;
}

core::Time Platform::max_comp() const {
  return std::max_element(slaves_.begin(), slaves_.end(),
                          [](const SlaveSpec& a, const SlaveSpec& b) {
                            return a.comp < b.comp;
                          })
      ->comp;
}

namespace {
std::vector<core::SlaveId> sorted_ids(
    int m, const std::vector<SlaveSpec>& slaves,
    double (*key)(const SlaveSpec&)) {
  std::vector<core::SlaveId> ids(static_cast<std::size_t>(m));
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(),
                   [&](core::SlaveId a, core::SlaveId b) {
                     return key(slaves[static_cast<std::size_t>(a)]) <
                            key(slaves[static_cast<std::size_t>(b)]);
                   });
  return ids;
}
}  // namespace

std::vector<core::SlaveId> Platform::order_by_comm() const {
  return sorted_ids(size(), slaves_, [](const SlaveSpec& s) { return s.comm; });
}

std::vector<core::SlaveId> Platform::order_by_comp() const {
  return sorted_ids(size(), slaves_, [](const SlaveSpec& s) { return s.comp; });
}

std::vector<core::SlaveId> Platform::order_by_comm_plus_comp() const {
  return sorted_ids(size(), slaves_,
                    [](const SlaveSpec& s) { return s.comm + s.comp; });
}

double Platform::aggregate_compute_rate() const {
  double rate = 0.0;
  for (const SlaveSpec& s : slaves_) rate += 1.0 / s.comp;
  return rate;
}

Platform Platform::homogeneous(int m, core::Time c, core::Time p) {
  if (m <= 0) throw std::invalid_argument("Platform: m must be positive");
  return Platform(std::vector<SlaveSpec>(static_cast<std::size_t>(m),
                                         SlaveSpec{c, p}));
}

std::string Platform::describe() const {
  std::ostringstream out;
  out << to_string(classify()) << " platform, m=" << size() << ":";
  for (int j = 0; j < size(); ++j) {
    out << " P" << j << "(c=" << comm(j) << ",p=" << comp(j) << ")";
  }
  return out.str();
}

}  // namespace msol::platform
