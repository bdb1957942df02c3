// The nine adversary constructions of Section 3, one class per theorem.
//
// Each drive() transcribes its proof's decision tree: release task i at
// time 0; at the probe instant(s) inspect what the scheduler committed; stop
// the instance when the scheduler already doomed itself, otherwise release
// the follow-up tasks. Platform constants are copied verbatim from the
// proofs; Theorems 4, 5, 7, 8, 9 keep the proofs' epsilon (and Theorems 4
// and 8 the growing parameter) as constructor arguments.

#include <cmath>
#include <stdexcept>

#include "theory/adversary.hpp"

namespace msol::theory {

namespace {

using platform::Platform;
using platform::SlaveSpec;

core::TaskId inject_now(core::OnePortEngine& engine) {
  return engine.inject_task(core::TaskSpec{engine.now(), 1.0, 1.0});
}

/// True when `task` is committed to slave `j`.
bool on(const core::OnePortEngine& engine, core::TaskId task, core::SlaveId j) {
  const auto slave = engine.assignment_of(task);
  return slave.has_value() && *slave == j;
}

// --------------------------------------------------------------------------
// Theorem 1 — Q,MS | online, r_i, p_j, c_j=c | max C_i  >= 5/4.
// Platform: p1=3, p2=7, c=1. Probes at t1=c and t2=2c.
class Theorem1 : public TheoremAdversary {
 public:
  int theorem() const override { return 1; }
  Platform make_platform() const override {
    return Platform({SlaveSpec{1.0, 3.0}, SlaveSpec{1.0, 7.0}});
  }

 protected:
  std::string drive(core::OnePortEngine& engine) const override {
    engine.inject_task(core::TaskSpec{0.0, 1.0, 1.0});  // task i
    engine.run_until(1.0);                              // t1 = c
    if (!engine.send_started(0)) return "i unsent by t1 (stop)";
    if (on(engine, 0, 1)) return "i on P2 (stop)";
    inject_now(engine);   // task j at t1
    engine.run_until(2.0);                              // t2 = 2c
    if (on(engine, 1, 1)) return "j on P2 (stop)";
    inject_now(engine);   // task k at t2
    return engine.send_started(1) ? "j on P1; k released at 2c"
                                  : "j unsent; k released at 2c";
  }
};

// --------------------------------------------------------------------------
// Theorem 2 — Q,MS | online, r_i, p_j, c_j=c | sum flow  >= (2+4*sqrt(2))/7.
// Platform: p1=2, p2=4*sqrt(2)-2, c=1. Probes at t1=c and t2=2c.
class Theorem2 : public TheoremAdversary {
 public:
  int theorem() const override { return 2; }
  Platform make_platform() const override {
    return Platform(
        {SlaveSpec{1.0, 2.0}, SlaveSpec{1.0, 4.0 * std::sqrt(2.0) - 2.0}});
  }

 protected:
  std::string drive(core::OnePortEngine& engine) const override {
    engine.inject_task(core::TaskSpec{0.0, 1.0, 1.0});  // task i
    engine.run_until(1.0);
    if (!engine.send_started(0)) return "i unsent by t1 (stop)";
    if (on(engine, 0, 1)) return "i on P2 (stop)";
    inject_now(engine);  // task j
    engine.run_until(2.0);
    if (on(engine, 1, 1)) return "j on P2 (stop)";
    inject_now(engine);  // task k
    return engine.send_started(1) ? "j on P1; k released at 2c"
                                  : "j unsent; k released at 2c";
  }
};

// --------------------------------------------------------------------------
// Theorem 3 — Q,MS | online, r_i, p_j, c_j=c | max flow  >= (5-sqrt(7))/2.
// Platform: p1=(2+sqrt(7))/3, p2=(1+2*sqrt(7))/3, c=1. Probe at
// tau=(4-sqrt(7))/3.
class Theorem3 : public TheoremAdversary {
 public:
  int theorem() const override { return 3; }
  Platform make_platform() const override {
    const double s7 = std::sqrt(7.0);
    return Platform(
        {SlaveSpec{1.0, (2.0 + s7) / 3.0}, SlaveSpec{1.0, (1.0 + 2.0 * s7) / 3.0}});
  }

 protected:
  std::string drive(core::OnePortEngine& engine) const override {
    const double tau = (4.0 - std::sqrt(7.0)) / 3.0;
    engine.inject_task(core::TaskSpec{0.0, 1.0, 1.0});  // task i
    engine.run_until(tau);
    if (!engine.send_started(0)) return "i unsent by tau (stop)";
    if (on(engine, 0, 1)) return "i on P2 (stop)";
    inject_now(engine);  // task j at tau
    return "i on P1; j released at tau";
  }
};

// --------------------------------------------------------------------------
// Theorem 4 — P,MS | online, r_i, p_j=p, c_j | max C_i  >= 6/5.
// Platform: p1=p2=p (p = `scale`, >= 5), c1=1, c2=p/2. Probe at p/2,
// then three tasks j, k, l.
class Theorem4 : public TheoremAdversary {
 public:
  explicit Theorem4(double scale) : p_(scale) {
    if (p_ < 5.0) throw std::invalid_argument("Theorem4: needs p >= 5");
  }
  int theorem() const override { return 4; }
  Platform make_platform() const override {
    return Platform({SlaveSpec{1.0, p_}, SlaveSpec{p_ / 2.0, p_}});
  }

 protected:
  std::string drive(core::OnePortEngine& engine) const override {
    engine.inject_task(core::TaskSpec{0.0, 1.0, 1.0});  // task i
    engine.run_until(p_ / 2.0);
    if (on(engine, 0, 1)) return "i on P2 (stop)";
    if (!engine.send_started(0)) return "i unsent by p/2 (stop)";
    inject_now(engine);  // j
    inject_now(engine);  // k
    inject_now(engine);  // l
    return "i on P1; j,k,l released at p/2";
  }

 private:
  double p_;
};

// --------------------------------------------------------------------------
// Theorem 5 — P,MS | online, r_i, p_j=p, c_j | max flow  >= 5/4.
// Platform: c1=eps, c2=1, p=2*c2-c1. Probe at tau=c2-c1, then j, k, l.
class Theorem5 : public TheoremAdversary {
 public:
  explicit Theorem5(double eps) : eps_(eps) {
    if (eps_ <= 0.0 || eps_ >= 1.0) {
      throw std::invalid_argument("Theorem5: eps must be in (0,1)");
    }
  }
  int theorem() const override { return 5; }
  Platform make_platform() const override {
    const double p = 2.0 - eps_;
    return Platform({SlaveSpec{eps_, p}, SlaveSpec{1.0, p}});
  }

 protected:
  std::string drive(core::OnePortEngine& engine) const override {
    const double tau = 1.0 - eps_;
    engine.inject_task(core::TaskSpec{0.0, 1.0, 1.0});  // task i
    engine.run_until(tau);
    if (on(engine, 0, 1)) return "i on P2 (stop)";
    if (!engine.send_started(0)) return "i unsent by tau (stop)";
    inject_now(engine);  // j
    inject_now(engine);  // k
    inject_now(engine);  // l
    return "i on P1; j,k,l released at tau";
  }

 private:
  double eps_;
};

// --------------------------------------------------------------------------
// Theorem 6 — P,MS | online, r_i, p_j=p, c_j | sum flow  >= 23/22.
// Platform: p=3, c1=1, c2=2. Probe at tau=c2=2, then j, k, l.
class Theorem6 : public TheoremAdversary {
 public:
  int theorem() const override { return 6; }
  Platform make_platform() const override {
    return Platform({SlaveSpec{1.0, 3.0}, SlaveSpec{2.0, 3.0}});
  }

 protected:
  std::string drive(core::OnePortEngine& engine) const override {
    engine.inject_task(core::TaskSpec{0.0, 1.0, 1.0});  // task i
    engine.run_until(2.0);
    if (on(engine, 0, 1)) return "i on P2 (stop)";
    if (!engine.send_started(0)) return "i unsent by tau (stop)";
    inject_now(engine);  // j
    inject_now(engine);  // k
    inject_now(engine);  // l
    return "i on P1; j,k,l released at tau";
  }
};

// --------------------------------------------------------------------------
// Theorem 7 — Q,MS | online, r_i, p_j, c_j | max C_i  >= (1+sqrt(3))/2.
// Platform: p1=eps, p2=p3=1+sqrt(3), c1=1+sqrt(3), c2=c3=1. Probe at 1,
// then two tasks j, k.
class Theorem7 : public TheoremAdversary {
 public:
  explicit Theorem7(double eps) : eps_(eps) {
    if (eps_ <= 0.0 || eps_ >= 1.0) {
      throw std::invalid_argument("Theorem7: eps must be in (0,1)");
    }
  }
  int theorem() const override { return 7; }
  Platform make_platform() const override {
    const double s3 = std::sqrt(3.0);
    return Platform({SlaveSpec{1.0 + s3, eps_}, SlaveSpec{1.0, 1.0 + s3},
                     SlaveSpec{1.0, 1.0 + s3}});
  }

 protected:
  std::string drive(core::OnePortEngine& engine) const override {
    engine.inject_task(core::TaskSpec{0.0, 1.0, 1.0});  // task i
    engine.run_until(1.0);
    if (on(engine, 0, 1) || on(engine, 0, 2)) return "i on P2/P3 (stop)";
    if (!engine.send_started(0)) return "i unsent by 1 (stop)";
    inject_now(engine);  // j
    inject_now(engine);  // k
    return "i on P1; j,k released at 1";
  }

 private:
  double eps_;
};

// --------------------------------------------------------------------------
// Theorem 8 — Q,MS | online, r_i, p_j, c_j | sum flow  >= (sqrt(13)-1)/2.
// Platform: c1=`scale` (grows), c2=c3=1, p1=eps,
// tau = (sqrt(52*c1^2+12*c1+1) - (6*c1+1)) / 4, p2=p3=tau+c1-1.
// Probe at tau, then two tasks j, k.
class Theorem8 : public TheoremAdversary {
 public:
  Theorem8(double eps, double scale) : eps_(eps), c1_(scale) {
    if (tau() <= eps_ || tau() + c1_ - 1.0 <= 0.0) {
      throw std::invalid_argument("Theorem8: c1 too small for this eps");
    }
  }
  int theorem() const override { return 8; }
  double tau() const {
    return (std::sqrt(52.0 * c1_ * c1_ + 12.0 * c1_ + 1.0) - (6.0 * c1_ + 1.0)) /
           4.0;
  }
  Platform make_platform() const override {
    const double p23 = tau() + c1_ - 1.0;
    return Platform({SlaveSpec{c1_, eps_}, SlaveSpec{1.0, p23},
                     SlaveSpec{1.0, p23}});
  }

 protected:
  std::string drive(core::OnePortEngine& engine) const override {
    engine.inject_task(core::TaskSpec{0.0, 1.0, 1.0});  // task i
    engine.run_until(tau());
    if (on(engine, 0, 1) || on(engine, 0, 2)) return "i on P2/P3 (stop)";
    if (!engine.send_started(0)) return "i unsent by tau (stop)";
    inject_now(engine);  // j
    inject_now(engine);  // k
    return "i on P1; j,k released at tau";
  }

 private:
  double eps_;
  double c1_;
};

// --------------------------------------------------------------------------
// Theorem 9 — Q,MS | online, r_i, p_j, c_j | max flow  >= sqrt(2).
// Platform: c1=2*(1+sqrt(2)), c2=c3=1, p1=eps, p2=p3=sqrt(2)*c1-1.
// Probe at tau=(sqrt(2)-1)*c1, then two tasks j, k.
class Theorem9 : public TheoremAdversary {
 public:
  explicit Theorem9(double eps) : eps_(eps) {
    if (eps_ <= 0.0 || eps_ >= 1.0) {
      throw std::invalid_argument("Theorem9: eps must be in (0,1)");
    }
  }
  int theorem() const override { return 9; }
  Platform make_platform() const override {
    const double c1 = 2.0 * (1.0 + std::sqrt(2.0));
    const double p23 = std::sqrt(2.0) * c1 - 1.0;
    return Platform({SlaveSpec{c1, eps_}, SlaveSpec{1.0, p23},
                     SlaveSpec{1.0, p23}});
  }

 protected:
  std::string drive(core::OnePortEngine& engine) const override {
    const double tau = (std::sqrt(2.0) - 1.0) * 2.0 * (1.0 + std::sqrt(2.0));
    engine.inject_task(core::TaskSpec{0.0, 1.0, 1.0});  // task i
    engine.run_until(tau);
    if (on(engine, 0, 1) || on(engine, 0, 2)) return "i on P2/P3 (stop)";
    if (!engine.send_started(0)) return "i unsent by tau (stop)";
    inject_now(engine);  // j
    inject_now(engine);  // k
    return "i on P1; j,k released at tau";
  }

 private:
  double eps_;
};

}  // namespace

std::unique_ptr<TheoremAdversary> make_theorem_adversary(int number, double eps,
                                                         double scale) {
  switch (number) {
    case 1: return std::make_unique<Theorem1>();
    case 2: return std::make_unique<Theorem2>();
    case 3: return std::make_unique<Theorem3>();
    case 4: return std::make_unique<Theorem4>(scale);
    case 5: return std::make_unique<Theorem5>(eps);
    case 6: return std::make_unique<Theorem6>();
    case 7: return std::make_unique<Theorem7>(eps);
    case 8: return std::make_unique<Theorem8>(eps, scale);
    case 9: return std::make_unique<Theorem9>(eps);
    default:
      throw std::out_of_range("make_theorem_adversary: number must be 1..9");
  }
}

std::vector<std::unique_ptr<TheoremAdversary>> all_theorem_adversaries() {
  std::vector<std::unique_ptr<TheoremAdversary>> out;
  out.reserve(9);
  for (int k = 1; k <= 9; ++k) out.push_back(make_theorem_adversary(k));
  return out;
}

}  // namespace msol::theory
