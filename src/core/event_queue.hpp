#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace msol::core {

/// What a calendar entry announces. Entries carry no payload beyond the
/// instant: the engine re-derives all state from its own bookkeeping when it
/// wakes, so a stale entry is at worst a no-op wake-up that the engine prunes
/// before acting (see OnePortEngine::next_wakeup).
///
/// Only the event families that would otherwise need a scan live in the
/// queue. Releases keep their sorted-order cursor, port frees their
/// capacity-bounded array and availability transitions the engine's
/// per-slave min-heap, all O(1)-ish to consult; enqueueing releases and
/// port frees as well was measured at ~25% of engine time on small
/// platforms.
enum class EventKind : std::uint8_t {
  kCompletion,     ///< a slave finishes one task (the last one pending on a
                   ///< slave doubles as its slave-free instant)
  kSchedulerWake,  ///< a WaitUntil request comes due
};

/// One calendar entry. `gen` is a caller-managed generation stamp used to
/// invalidate entries lazily (scheduler wake-ups are superseded by newer
/// requests or by an assignment); kinds that are facts once emitted
/// (releases, port frees, completions) leave it at 0.
struct Event {
  Time time = 0.0;
  EventKind kind = EventKind::kCompletion;
  std::uint32_t gen = 0;
};

/// The single source of future wake-up instants for the event-driven
/// engine: a Brown-style bucketed calendar queue, O(1) amortized push and
/// pop for the engine's event pattern (a dense moving window of near-future
/// instants). Replaces the per-step linear scans over ports, slaves and
/// per-slave completion lists that the pre-calendar engine (retained as
/// ReferenceEngine) performs in its next_wakeup().
///
/// Contract (all the engine relies on): pop() consumes entries in
/// nondecreasing time order, top() is an entry of minimum time, and nothing
/// is ever lost or duplicated. Ties on time may surface in any order — only
/// the minimum *instant* is ever consumed, never the entry identity
/// (tests/test_event_queue.cpp fuzzes exactly this contract against a
/// sorted-multimap model; tests/test_engine_diff.cpp proves engine-level
/// identity with ReferenceEngine).
///
/// Deletion is lazy: consumers pop entries that their own state proves
/// stale (in the past, or generation-superseded).
///
/// Times must be non-negative and finite (simulation instants); push
/// throws std::invalid_argument otherwise.
class EventQueue {
 public:
  EventQueue();

  void push(Time time, EventKind kind, std::uint32_t gen = 0);

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// An entry of earliest time; undefined when empty().
  const Event& top() const;

  void pop();

  /// Drops every entry but keeps the allocation, so a reused engine stops
  /// paying per-cell bucket growth in grid sweeps.
  void clear();

 private:
  std::size_t bucket_of(Time t) const;
  /// Locates the minimum entry (bucket index cached; the minimum of a
  /// bucket is always its back, buckets being sorted descending by time).
  void find_min() const;
  void insert_calendar(const Event& e);
  /// Rebuilds the bucket array for the current size: new bucket count and a
  /// width estimated from the gaps of the earliest entries (the classic
  /// calendar-queue sizing rule).
  void resize_calendar(std::size_t nbuckets);

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinBuckets = 16;

  std::size_t size_ = 0;
  // Each bucket is sorted by time descending, so its minimum is back() and
  // pop is O(1) once located.
  std::vector<std::vector<Event>> buckets_;
  std::size_t nbuckets_ = kMinBuckets;  ///< always a power of two
  std::size_t bucket_mask_ = kMinBuckets - 1;
  double width_ = 1.0;         ///< seconds of simulated time per bucket
  /// Lower bound on every stored entry's time: raised to each popped
  /// minimum, lowered by an out-of-order push. find_min starts its
  /// year-window scan here, which is what makes successive pops amortized
  /// O(1) — the scan position only moves forward with the popped times.
  double floor_time_ = 0.0;
  /// Cached location of the minimum entry (valid when cmin_bucket_ is not
  /// npos): maintained across pushes, invalidated by pop. Mutable so the
  /// const top() can lazily re-locate after a pop.
  mutable std::size_t cmin_bucket_ = kNpos;
  std::vector<Event> scratch_;  ///< resize_calendar's flatten buffer
};

}  // namespace msol::core
