// Property fuzz for the EventQueue against a sorted-multimap model (the
// queue's one oracle): every pop surfaces the minimum of the current
// content, drains are nondecreasing, and no entry is ever lost or
// duplicated — across randomized push/pop interleavings drawn from the
// engine's time distributions and their extremes (all ties at one instant,
// heavy-tailed gaps, a dense advancing window, grow/shrink churn, and a
// fleet-size regime holding thousands of live entries). Tie order is
// unspecified by the contract, so equality is asserted per-timestamp as a
// multiset of (kind, gen) payloads, never as a literal sequence.
//
// Labeled `fuzz` (see CMakeLists), so the ASan/UBSan CI leg runs it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "core/event_queue.hpp"
#include "util/rng.hpp"

namespace msol::core {
namespace {

using Payload = std::pair<EventKind, std::uint32_t>;

/// Oracle: a sorted multimap time -> payload multiset. Mirrors every push;
/// every pop must match its minimum key and remove one matching payload.
class Model {
 public:
  void push(Time t, EventKind kind, std::uint32_t gen) {
    entries_.emplace(t, Payload{kind, gen});
  }

  std::size_t size() const { return entries_.size(); }
  /// Earliest stored time; the model must not be empty.
  Time min_time() const { return entries_.begin()->first; }

  /// Consumes one entry equal to `e`; fails the test if the queue surfaced
  /// a time that is not the minimum or a payload never pushed (duplicate /
  /// corrupted entry).
  void consume(const Event& e, const std::string& label) {
    ASSERT_FALSE(entries_.empty()) << label << ": pop from empty model";
    ASSERT_EQ(e.time, entries_.begin()->first)
        << label << ": popped time is not the minimum";
    auto [lo, hi] = entries_.equal_range(e.time);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == Payload{e.kind, e.gen}) {
        entries_.erase(it);
        return;
      }
    }
    FAIL() << label << ": popped payload was never pushed (kind="
           << static_cast<int>(e.kind) << " gen=" << e.gen << " t=" << e.time
           << ")";
  }

 private:
  std::multimap<Time, Payload> entries_;
};

/// Time distributions of the engine's queue traffic and their extremes.
enum class Regime {
  kUniform,      ///< uniform over a fixed horizon
  kOneInstant,   ///< every entry at one instant: nothing but ties
  kHeavyTail,    ///< heavy-tailed gaps: u^-3 spans ~6 orders of magnitude
  kDenseWindow,  ///< dense moving window just ahead of the cursor
  /// Fleet size: at least kFleetLive entries stay live while a mix of the
  /// above plus exact-instant tie pile-ups and pushes behind the popped
  /// minimum keeps a deep heap under mixed traffic.
  kFleet,
};

constexpr std::size_t kFleetLive = 4096;

/// Drives the queue through `ops` randomized operations and checks it
/// against the model and the nondecreasing-pop invariant.
void fuzz_queue(Regime regime, std::uint64_t seed, int ops,
                const std::string& label) {
  EventQueue queue;
  Model model;
  util::Rng rng(seed);
  const bool fleet = regime == Regime::kFleet;
  // Fleet size: refill below the floor, otherwise pop-biased, so the live
  // count hovers just above kFleetLive instead of growing without bound.
  const std::size_t min_live = fleet ? kFleetLive : 0;
  const int push_below = fleet ? 30 : 55;
  const int pop_below = fleet ? 99 : 95;

  Time cursor = 0.0;  // advancing window base (engine-like pattern)

  const auto heavy_tail = [&]() -> Time {
    const double u = rng.uniform(0.01, 1.0);
    return cursor + 1.0 / (u * u * u);
  };
  const auto draw_time = [&]() -> Time {
    switch (regime) {
      case Regime::kUniform:
        return rng.uniform(0.0, 100.0);
      case Regime::kOneInstant:
        return 42.0;
      case Regime::kHeavyTail:
        return heavy_tail();
      case Regime::kDenseWindow:
        return cursor + rng.uniform(0.0, 2.0);
      case Regime::kFleet:
        break;
    }
    const int pick = static_cast<int>(rng.uniform_int(0, 9));
    if (pick < 4) return cursor + rng.uniform(0.0, 4.0);
    if (pick < 6) return heavy_tail();
    // Whole-second instants: exact ties across separate pushes.
    if (pick < 9) return std::floor(cursor) + static_cast<Time>(pick - 5);
    // Behind the popped minimum (a wake-up race).
    return std::max(0.0, cursor - rng.uniform(0.0, 1.0));
  };

  for (int op = 0; op < ops; ++op) {
    const int roll = static_cast<int>(rng.uniform_int(0, 99));
    if (roll < push_below || queue.empty() || queue.size() <= min_live) {
      const Time t = draw_time();
      const EventKind kind =
          static_cast<EventKind>(rng.uniform_int(0, 2));
      const auto gen = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
      queue.push(t, kind, gen);
      model.push(t, kind, gen);
    } else if (roll < pop_below) {
      // Note: popped times need not be globally nondecreasing here — a
      // later push may legally carry an earlier time (the engine's wake-up
      // races do exactly this). The model check below asserts the real
      // contract: every pop surfaces the minimum of the *current* content.
      const Event popped = queue.top();
      queue.pop();
      model.consume(popped, label + " op " + std::to_string(op));
      if (::testing::Test::HasFatalFailure()) return;
      // The engine's clock only moves to popped instants; advancing the
      // window base the same way keeps dense-window pushes mostly in-order
      // with occasional slightly-in-the-past entries (wake-up races).
      cursor = std::max(cursor, popped.time - 0.5);
    } else if (roll < 98 || fleet) {
      // Burst: a clump of near-identical times; at fleet size the clump is
      // an exact-instant pile-up.
      const Time t = draw_time();
      const int burst = static_cast<int>(rng.uniform_int(2, fleet ? 64 : 30));
      for (int b = 0; b < burst; ++b) {
        const Time jitter = fleet ? 0.0 : rng.uniform(0.0, 1e-6);
        queue.push(t + jitter, EventKind::kCompletion, 0);
        model.push(t + jitter, EventKind::kCompletion, 0);
      }
    } else {
      queue.clear();
      model = Model{};
      cursor = 0.0;
    }
    ASSERT_EQ(queue.size(), model.size()) << label << " op " << op;
    // Peek like the engine does before its next push: top() must be the
    // minimum after every push, earlier-time ones included.
    if (!queue.empty()) {
      ASSERT_EQ(queue.top().time, model.min_time()) << label << " op " << op;
    }
  }

  // Drain: no further pushes, so here pops MUST be nondecreasing, and
  // every remaining entry must surface exactly once.
  Time last_popped = -1.0;
  while (!queue.empty()) {
    const Event popped = queue.top();
    queue.pop();
    ASSERT_GE(popped.time, last_popped) << label << " drain";
    last_popped = popped.time;
    model.consume(popped, label + " drain");
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_EQ(model.size(), 0u) << label << ": entries lost";
}

class EventQueueFuzz : public ::testing::TestWithParam<int> {};

TEST_P(EventQueueFuzz, CalendarHonorsContract) {
  for (int c = 0; c < 8; ++c) {
    const std::uint64_t seed =
        20260808ULL * static_cast<std::uint64_t>(GetParam() + 1) +
        static_cast<std::uint64_t>(c);
    fuzz_queue(static_cast<Regime>(seed % 4), seed, 1200,
               "calendar seed " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(EventQueueFuzz, CalendarHonorsContractAtFleetSize) {
  const std::uint64_t seed = 4096ULL * static_cast<std::uint64_t>(GetParam() + 1);
  fuzz_queue(Regime::kFleet, seed, 100000,
             "fleet seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Shards, EventQueueFuzz, ::testing::Range(0, 6));

// ----- directed edge cases -------------------------------------------------

TEST(EventQueueEdge, RejectsNegativeAndNonFiniteTimes) {
  EventQueue queue;
  EXPECT_THROW(queue.push(-1.0, EventKind::kCompletion), std::invalid_argument);
  EXPECT_THROW(queue.push(std::numeric_limits<double>::quiet_NaN(),
                          EventKind::kCompletion),
               std::invalid_argument);
  EXPECT_THROW(queue.push(std::numeric_limits<double>::infinity(),
                          EventKind::kCompletion),
               std::invalid_argument);
  EXPECT_TRUE(queue.empty());  // failed pushes must not leak entries
}

TEST(EventQueueEdge, TenThousandEntriesAtOneInstant) {
  // Nothing but ties: every entry must still surface exactly once.
  EventQueue queue;
  for (int i = 0; i < 10000; ++i)
    queue.push(7.25, EventKind::kCompletion, static_cast<std::uint32_t>(i));
  EXPECT_EQ(queue.size(), 10000u);
  std::vector<bool> seen(10000, false);
  while (!queue.empty()) {
    const Event& e = queue.top();
    EXPECT_EQ(e.time, 7.25);
    ASSERT_LT(e.gen, 10000u);
    ASSERT_FALSE(seen[e.gen]) << "duplicate gen " << e.gen;
    seen[e.gen] = true;
    queue.pop();
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(EventQueueEdge, GrowShrinkCyclesPreserveEntries) {
  EventQueue queue;
  util::Rng rng(5);
  // Repeatedly inflate to thousands of entries and drain most of them;
  // every cycle must conserve the surviving entries.
  std::multimap<Time, std::uint32_t> model;
  std::uint32_t next_gen = 0;
  for (int cycle = 0; cycle < 6; ++cycle) {
    for (int i = 0; i < 3000; ++i) {
      const Time t = rng.uniform(0.0, 1000.0);
      queue.push(t, EventKind::kSchedulerWake, next_gen);
      model.emplace(t, next_gen++);
    }
    for (int i = 0; i < 2900; ++i) {
      const Event e = queue.top();
      queue.pop();
      auto [lo, hi] = model.equal_range(e.time);
      bool found = false;
      for (auto it = lo; it != hi; ++it) {
        if (it->second == e.gen) {
          model.erase(it);
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "cycle " << cycle << " entry gen " << e.gen;
    }
    ASSERT_EQ(queue.size(), model.size()) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace msol::core
