#include "core/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msol::core {

namespace {

/// Heap order for a min-heap: std::push_heap keeps the "largest" element
/// under this comparator at front(), which is the earliest time.
bool later(const Event& a, const Event& b) { return a.time > b.time; }

}  // namespace

void EventQueue::push(Time time, EventKind kind, std::uint32_t gen) {
  if (!(time >= 0.0) || !std::isfinite(time)) {
    throw std::invalid_argument(
        "EventQueue: event times must be finite and non-negative");
  }
  heap_.push_back(Event{time, kind, gen});
  std::push_heap(heap_.begin(), heap_.end(), later);
}

void EventQueue::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), later);
  heap_.pop_back();
}

}  // namespace msol::core
