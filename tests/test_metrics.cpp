#include <gtest/gtest.h>

#include "algorithms/replay.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/schedule_io.hpp"
#include "platform/platform.hpp"

namespace msol::core {
namespace {

using platform::Platform;
using platform::SlaveSpec;

Schedule two_task_schedule() {
  Schedule s;
  s.add(TaskRecord{0, 0, 0.0, 0.0, 1.0, 1.0, 4.0});  // flow 4
  s.add(TaskRecord{1, 1, 0.0, 1.0, 3.0, 3.0, 8.0});  // flow 8
  return s;
}

// ---------------------------------------------------------- flow stats ------

TEST(FlowStats, EmptySchedule) {
  const FlowStats stats = flow_stats(Schedule{});
  EXPECT_EQ(stats.count, 0);
  EXPECT_DOUBLE_EQ(stats.mean, 0.0);
}

TEST(FlowStats, KnownValues) {
  const FlowStats stats = flow_stats(two_task_schedule());
  EXPECT_EQ(stats.count, 2);
  EXPECT_DOUBLE_EQ(stats.mean, 6.0);
  EXPECT_DOUBLE_EQ(stats.max, 8.0);
  EXPECT_DOUBLE_EQ(stats.p50, 6.0);  // linear interpolation between 4 and 8
  // Jain: (12)^2 / (2 * 80) = 144/160 = 0.9
  EXPECT_DOUBLE_EQ(stats.jain_fairness, 0.9);
}

TEST(FlowStats, PerfectFairnessIsOne) {
  Schedule s;
  for (int i = 0; i < 4; ++i) {
    s.add(TaskRecord{i, 0, static_cast<Time>(i), static_cast<Time>(i),
                     static_cast<Time>(i) + 1, static_cast<Time>(i) + 1,
                     static_cast<Time>(i) + 3});
  }
  EXPECT_DOUBLE_EQ(flow_stats(s).jain_fairness, 1.0);
}

TEST(FlowStats, PercentilesAreMonotone) {
  Schedule s;
  for (int i = 0; i < 100; ++i) {
    s.add(TaskRecord{i, 0, 0.0, 0.0, 1.0, 1.0, 1.0 + i});
  }
  const FlowStats stats = flow_stats(s);
  EXPECT_LE(stats.p50, stats.p90);
  EXPECT_LE(stats.p90, stats.p99);
  EXPECT_LE(stats.p99, stats.max);
  EXPECT_DOUBLE_EQ(stats.max, 100.0);
}

// --------------------------------------------------------- utilization ------

TEST(Utilization, KnownFractions) {
  const Platform plat({SlaveSpec{1.0, 3.0}, SlaveSpec{2.0, 5.0}});
  const Utilization u = utilization(plat, two_task_schedule());
  // Horizon 8; port busy 1 + 2 = 3; slave0 computes 3, slave1 computes 5.
  EXPECT_DOUBLE_EQ(u.port, 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(u.slave[0], 3.0 / 8.0);
  EXPECT_DOUBLE_EQ(u.slave[1], 5.0 / 8.0);
  EXPECT_DOUBLE_EQ(u.mean_slave, 0.5);
}

TEST(Utilization, EmptyScheduleIsZero) {
  const Platform plat = Platform::homogeneous(2, 1.0, 1.0);
  const Utilization u = utilization(plat, Schedule{});
  EXPECT_DOUBLE_EQ(u.port, 0.0);
  EXPECT_DOUBLE_EQ(u.mean_slave, 0.0);
}

TEST(Utilization, NeverExceedsOneOnRealSchedules) {
  const Platform plat({SlaveSpec{0.2, 1.0}, SlaveSpec{0.3, 2.0}});
  algorithms::Replay replay({0, 1, 0, 1, 0});
  const Schedule s = simulate(plat, Workload::all_at_zero(5), replay);
  const Utilization u = utilization(plat, s);
  EXPECT_LE(u.port, 1.0 + 1e-9);
  for (double v : u.slave) EXPECT_LE(v, 1.0 + 1e-9);
}

// ---------------------------------------------------------- csv io ------

TEST(ScheduleCsv, RoundTrip) {
  const Schedule s = two_task_schedule();
  const Schedule back = from_csv(to_csv(s));
  ASSERT_EQ(back.size(), s.size());
  for (int i = 0; i < s.size(); ++i) {
    EXPECT_EQ(back.at(i).task, s.at(i).task);
    EXPECT_EQ(back.at(i).slave, s.at(i).slave);
    EXPECT_DOUBLE_EQ(back.at(i).comp_end, s.at(i).comp_end);
  }
  EXPECT_DOUBLE_EQ(back.makespan(), s.makespan());
}

TEST(ScheduleCsv, EmptyScheduleRoundTrips) {
  EXPECT_EQ(from_csv(to_csv(Schedule{})).size(), 0);
}

TEST(ScheduleCsv, RejectsBadInput) {
  EXPECT_THROW(from_csv("not,a,header\n"), std::invalid_argument);
  EXPECT_THROW(
      from_csv("task,slave,release,send_start,send_end,comp_start,comp_end\n"
               "0,1,2\n"),
      std::invalid_argument);
  EXPECT_THROW(
      from_csv("task,slave,release,send_start,send_end,comp_start,comp_end\n"
               "0,1,x,0,1,1,2\n"),
      std::invalid_argument);
}

TEST(ScheduleCsv, RejectsMisreadIdsAndTimesWithTheLineNumber) {
  // Each row used to read as something else: task 0, task 0, slave 1, a
  // NaN release, an out-of-range float-to-int cast, and 7 of 8 columns.
  for (const char* row :
       {"0abc,0,0,0,1,1,2", "0.7,0,0,0,1,1,2", "0,1.9,0,0,1,1,2",
        "0,0,nan,0,1,1,2", "1e300,0,0,0,1,1,2", "0,0,0,0,1,1,2,",
        "0,0,0,0,1,1,inf", "4294967296,0,0,0,1,1,2", " 0,0,0,0,1,1,2"}) {
    try {
      from_csv(
          "task,slave,release,send_start,send_end,comp_start,comp_end\n"
          "1,0,0,0,1,1,2\n" +
          std::string(row) + "\n");
      ADD_FAILURE() << "accepted: " << row;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("schedule csv line 3"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace msol::core
