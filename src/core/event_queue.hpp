#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace msol::core {

/// What a queue entry announces. Entries carry no payload beyond the
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

/// One queue entry. `gen` is a caller-managed generation stamp used to
/// invalidate entries lazily (scheduler wake-ups are superseded by newer
/// requests or by an assignment); kinds that are facts once emitted
/// (releases, port frees, completions) leave it at 0.
struct Event {
  Time time = 0.0;
  EventKind kind = EventKind::kCompletion;
  std::uint32_t gen = 0;
};

/// The single source of future wake-up instants for the event-driven
/// engine: a binary min-heap on Event::time, O(log n) push and pop. Replaces
/// the per-step linear scans over ports, slaves and per-slave completion
/// lists that the pre-queue engine (kept as the ReferenceEngine oracle in
/// tests/oracles/) performs in its next_wakeup().
///
/// Contract (all the engine relies on): pop() consumes entries in
/// nondecreasing time order, top() is an entry of minimum time, and nothing
/// is ever lost or duplicated. Ties on time may surface in any order — only
/// the minimum *instant* is ever consumed, never the entry identity
/// (tests/test_event_queue.cpp fuzzes exactly this contract against a
/// sorted-multimap model; tests/test_engine_diff.cpp proves engine-level
/// identity with the ReferenceEngine oracle).
///
/// Deletion is lazy: consumers pop entries that their own state proves
/// stale (in the past, or generation-superseded).
///
/// Times must be non-negative and finite (simulation instants); push
/// throws std::invalid_argument otherwise.
class EventQueue {
 public:
  void push(Time time, EventKind kind, std::uint32_t gen = 0);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// An entry of earliest time; undefined when empty().
  const Event& top() const { return heap_.front(); }

  void pop();

  /// Drops every entry but keeps the allocation, so a reused engine stops
  /// paying per-cell growth in grid sweeps.
  void clear() { heap_.clear(); }

 private:
  std::vector<Event> heap_;  ///< std::push_heap order, earliest at front()
};

}  // namespace msol::core
