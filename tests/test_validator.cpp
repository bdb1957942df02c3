#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/validator.hpp"
#include "platform/availability.hpp"
#include "platform/platform.hpp"

namespace msol::core {
namespace {

using platform::AvailabilityProfile;
using platform::AvailabilitySpan;
using platform::Platform;
using platform::SlaveSpec;

Platform plat() {
  return Platform({SlaveSpec{1.0, 3.0}, SlaveSpec{2.0, 5.0}});
}

/// A correct two-task schedule used as the baseline to perturb.
Schedule good_schedule() {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 1, 0.0, 1.0, 3.0, 3.0, 8.0});
  return s;
}

TEST(Validator, AcceptsFeasibleSchedule) {
  EXPECT_TRUE(validate(plat(), Workload::all_at_zero(2), good_schedule())
                  .empty());
}

TEST(Validator, DetectsMissingTask) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  const auto v = validate(plat(), Workload::all_at_zero(2), s);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("never scheduled"), std::string::npos);
}

TEST(Validator, DetectsDuplicateTask) {
  Schedule s = good_schedule();
  s.add(TaskRecord{0, 1, 0.0, 3.0, 5.0, 8.0, 13.0});
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(2), s)) {
    if (msg.find("scheduled 2 times") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsSendBeforeRelease) {
  Schedule s = good_schedule();
  const auto v = validate(plat(), Workload::from_releases({0.5, 0.6}), s);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("before release"), std::string::npos);
}

TEST(Validator, DetectsWrongSendDuration) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 0.5, 0.5, 3.5});  // c_0 is 1.0, not 0.5
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(1), s)) {
    if (msg.find("send duration") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsComputeBeforeArrival) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 0.5, 3.5});
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(1), s)) {
    if (msg.find("before arrival") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsWrongComputeDuration) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 3.0});  // p_0 is 3.0 => end 4.0
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(1), s)) {
    if (msg.find("compute duration") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsOnePortViolation) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 1, 0.0, 0.5, 2.5, 2.5, 7.5});  // overlaps [0.5, 1.0)
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(2), s)) {
    if (msg.find("one-port violation") != std::string::npos) found = true;
  }
  EXPECT_TRUE(found);
}

/// The full text of every violation kind a record or the sweeps can report,
/// numbers in the stream's default format (six significant digits). Each
/// schedule breaks one rule; the offline case also breaks the work
/// integral, as a record cut by an outage does.
TEST(Validator, ViolationMessagesArePinned) {
  struct Case {
    std::string name;
    Workload workload;
    std::vector<TaskRecord> records;
    EngineOptions options;
    std::vector<std::string> want;
  };
  EngineOptions outage;  // slave 0 offline over [2, 10)
  outage.availability = {
      AvailabilityProfile({AvailabilitySpan{0.0, true, 1.0},
                           AvailabilitySpan{2.0, false, 1.0},
                           AvailabilitySpan{10.0, true, 1.0}}),
      AvailabilityProfile()};
  EngineOptions fast;  // slave 0 always online at twice its nominal speed
  fast.availability = {
      AvailabilityProfile({AvailabilitySpan{0.0, true, 2.0}}),
      AvailabilityProfile()};
  const std::vector<Case> cases = {
      {"send before release",
       Workload::from_releases({1.23456789}),
       {{0, 0, 1.23456789, 0.123456789, 1.123456789, 1.123456789,
         4.123456789}},
       EngineOptions{},
       {"task 0: send starts at 0.123457 before release 1.23457"}},
      {"send duration",
       Workload::all_at_zero(1),
       {{0, 0, 0.0, 0.0, 0.4444444, 0.4444444, 3.4444444}},
       EngineOptions{},
       {"task 0: send duration 0.444444 != c_j*factor 1"}},
      {"compute before arrival",
       Workload::all_at_zero(1),
       {{0, 0, 0.0, 0.0, 1.0, 0.5, 3.5}},
       EngineOptions{},
       {"task 0: computes at 0.5 before arrival 1"}},
      {"compute duration",
       Workload::all_at_zero(1),
       {{0, 0, 0.0, 0.0, 1.0, 1.0, 3.25}},
       EngineOptions{},
       {"task 0: compute duration 2.25 != p_j*factor 3"}},
      {"offline compute",
       Workload::all_at_zero(1),
       {{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0}},
       outage,
       {"task 0: computes on slave 0 while it is offline (t=1..4)",
        "task 0: integrated compute work 1 != p_j*factor 3"}},
      {"integrated work",
       Workload::all_at_zero(1),
       {{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0}},
       fast,
       {"task 0: integrated compute work 6 != p_j*factor 3"}},
      {"one-port",
       Workload::all_at_zero(2),
       {{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0}, {1, 1, 0.0, 0.5, 2.5, 2.5, 7.5}},
       EngineOptions{},
       {"one-port violation: 2 sends in flight at t=0.5 (capacity 1)"}},
      {"two tasks at once",
       Workload::all_at_zero(2),
       {{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0}, {1, 0, 0.0, 1.0, 2.0, 2.0, 5.0}},
       EngineOptions{},
       {"slave 0 computes two tasks at once around t=2"}},
  };
  for (const Case& c : cases) {
    Schedule s;
    for (const TaskRecord& r : c.records) s.add(r);
    EXPECT_EQ(validate(plat(), c.workload, s, c.options), c.want) << c.name;
  }
}

TEST(Validator, OverlapAllowedWithCapacityTwo) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 1, 0.0, 0.0, 2.0, 2.0, 7.0});
  EXPECT_FALSE(
      validate(plat(), Workload::all_at_zero(2), s, /*port_capacity=*/1)
          .empty());
  EXPECT_TRUE(
      validate(plat(), Workload::all_at_zero(2), s, /*port_capacity=*/2)
          .empty());
}

TEST(Validator, BackToBackSendsAreLegal) {
  // send_end == next send_start must not count as overlap.
  EXPECT_TRUE(validate(plat(), Workload::all_at_zero(2), good_schedule())
                  .empty());
}

TEST(Validator, SendOverlapWithinTimeEpsIsLegal) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 1, 0.0, 1.0 - 0.5e-9, 3.0 - 0.5e-9, 3.0, 8.0});
  EXPECT_TRUE(validate(plat(), Workload::all_at_zero(2), s).empty());
}

TEST(Validator, SendOverlapBeyondTimeEpsIsAViolation) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 1, 0.0, 1.0 - 2e-9, 3.0 - 2e-9, 3.0, 8.0});
  const auto v = validate(plat(), Workload::all_at_zero(2), s);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("one-port violation: 2 sends in flight"),
            std::string::npos);
  EXPECT_TRUE(
      validate(plat(), Workload::all_at_zero(2), s, /*port_capacity=*/2)
          .empty());
}

TEST(Validator, DetectsSlaveComputeOverlap) {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{1, 0, 0.0, 1.0, 2.0, 2.0, 5.0});  // slave 0 busy 1..4
  bool found = false;
  for (const auto& msg : validate(plat(), Workload::all_at_zero(2), s)) {
    if (msg.find("computes two tasks at once") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Validator, DetectsUnknownIds) {
  Schedule s;
  s.add(TaskRecord{5, 0, 0.0, 0.0, 1.0, 1.0, 4.0});
  s.add(TaskRecord{0, 9, 0.0, 1.0, 2.0, 2.0, 5.0});
  const auto v = validate(plat(), Workload::all_at_zero(1), s);
  bool unknown_task = false, unknown_slave = false;
  for (const auto& msg : v) {
    if (msg.find("unknown task") != std::string::npos) unknown_task = true;
    if (msg.find("unknown slave") != std::string::npos) unknown_slave = true;
  }
  EXPECT_TRUE(unknown_task);
  EXPECT_TRUE(unknown_slave);
}

TEST(Validator, ValidateOrThrowListsViolations) {
  Schedule s;
  EXPECT_THROW(validate_or_throw(plat(), Workload::all_at_zero(1), s),
               std::logic_error);
  EXPECT_NO_THROW(
      validate_or_throw(plat(), Workload::all_at_zero(2), good_schedule()));
}

TEST(Validator, RespectsTaskSizeFactors) {
  Workload w({TaskSpec{0.0, 2.0, 0.5}});
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 2.0, 2.0, 3.5});  // c=1*2, p=3*0.5
  EXPECT_TRUE(validate(plat(), w, s).empty());
}

}  // namespace
}  // namespace msol::core
