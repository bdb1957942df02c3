#include "core/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace msol::core {

namespace {

/// Insert position that keeps a bucket sorted by time descending (bucket
/// minimum at back()): first element strictly earlier than `t`. Equal times
/// stay ahead of the new entry, so the back is the oldest of the tied
/// entries — irrelevant to the contract (tie order is unspecified) but kept
/// deterministic.
std::vector<Event>::iterator descending_pos(std::vector<Event>& bucket,
                                            Time t) {
  return std::upper_bound(
      bucket.begin(), bucket.end(), t,
      [](Time value, const Event& e) { return value > e.time; });
}

}  // namespace

EventQueue::EventQueue() : buckets_(kMinBuckets) {}

void EventQueue::clear() {
  for (std::vector<Event>& bucket : buckets_) bucket.clear();
  size_ = 0;
  floor_time_ = 0.0;
  cmin_bucket_ = kNpos;
}

std::size_t EventQueue::bucket_of(Time t) const {
  // Simulation instants are non-negative and tiny next to 2^62, so the
  // clamp below never fires in practice; it only keeps a (time / width)
  // overflow from turning into undefined behavior. A clamped entry lands in
  // a "wrong" bucket, which is harmless: its time is astronomically large,
  // so the year-window accept can never prefer it over a genuine minimum
  // and the full-scan fallback still sees it.
  const double q = t / width_;
  constexpr double kMaxIndex = 4.6e18;  // < 2^62
  const auto idx =
      static_cast<std::uint64_t>(q < kMaxIndex ? q : kMaxIndex);
  return static_cast<std::size_t>(idx) & bucket_mask_;
}

void EventQueue::push(Time time, EventKind kind, std::uint32_t gen) {
  if (!(time >= 0.0) || !std::isfinite(time)) {
    throw std::invalid_argument(
        "EventQueue: event times must be finite and non-negative");
  }
  insert_calendar(Event{time, kind, gen});
  ++size_;
  if (size_ > 2 * nbuckets_) resize_calendar(nbuckets_ * 2);
}

void EventQueue::insert_calendar(const Event& e) {
  const std::size_t b = bucket_of(e.time);
  std::vector<Event>& bucket = buckets_[b];
  // Keep the cached minimum alive across pushes: a strictly earlier entry
  // *becomes* the minimum (and, being smaller than every stored time, the
  // back of its bucket); anything else leaves the old minimum in place.
  if (cmin_bucket_ != kNpos &&
      e.time < buckets_[cmin_bucket_].back().time) {
    cmin_bucket_ = b;
  }
  bucket.insert(descending_pos(bucket, e.time), e);
  if (e.time < floor_time_) floor_time_ = e.time;
}

void EventQueue::find_min() const {
  if (cmin_bucket_ != kNpos || size_ == 0) return;
  // Year-window scan from the floor: bucket (base + k) may only claim the
  // minimum with an entry inside its window of the current year,
  // [(base + k) * width, (base + k + 1) * width). Within a bucket the
  // candidate is its back (buckets are sorted descending), and entries of
  // later years sit at or beyond window_top + (nbuckets - 1) * width, so
  // the first in-window back() encountered is the global minimum.
  const double q = floor_time_ / width_;
  constexpr double kMaxIndex = 4.6e18;
  const auto base = static_cast<std::uint64_t>(q < kMaxIndex ? q : kMaxIndex);
  for (std::size_t k = 0; k < nbuckets_; ++k) {
    const std::size_t b =
        static_cast<std::size_t>(base + k) & bucket_mask_;
    const std::vector<Event>& bucket = buckets_[b];
    const double window_top = static_cast<double>(base + k + 1) * width_;
    if (!bucket.empty() && bucket.back().time < window_top) {
      cmin_bucket_ = b;
      return;
    }
  }
  // Sparse year (every entry lies beyond one full rotation): direct scan of
  // the per-bucket minima.
  double best_time = std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < nbuckets_; ++b) {
    const std::vector<Event>& bucket = buckets_[b];
    if (!bucket.empty() && bucket.back().time < best_time) {
      best_time = bucket.back().time;
      cmin_bucket_ = b;
    }
  }
}

const Event& EventQueue::top() const {
  find_min();
  return buckets_[cmin_bucket_].back();
}

void EventQueue::pop() {
  find_min();
  std::vector<Event>& bucket = buckets_[cmin_bucket_];
  floor_time_ = bucket.back().time;  // times only move forward from the min
  bucket.pop_back();
  cmin_bucket_ = kNpos;
  --size_;
  if (nbuckets_ > kMinBuckets && size_ < nbuckets_ / 2) {
    resize_calendar(nbuckets_ / 2);
  }
}

void EventQueue::resize_calendar(std::size_t nbuckets) {
  scratch_.clear();
  scratch_.reserve(size_);
  for (std::vector<Event>& bucket : buckets_) {
    scratch_.insert(scratch_.end(), bucket.begin(), bucket.end());
    bucket.clear();
  }

  // Width from the average gap of the earliest entries (the classic
  // calendar-queue sizing rule): the head of the queue is where pops scan,
  // so that is the region the buckets must spread out. Ties contribute zero
  // gap; an all-tied head degenerates to a single bucket no matter the
  // width (still correct, only slower: each push is a sorted insert into
  // that one bucket).
  const std::size_t sample =
      std::min<std::size_t>(scratch_.size(), 64);
  if (sample >= 2) {
    std::nth_element(scratch_.begin(),
                     scratch_.begin() + static_cast<std::ptrdiff_t>(sample - 1),
                     scratch_.end(),
                     [](const Event& a, const Event& b) {
                       return a.time < b.time;
                     });
    // Only the sample's first and last times are read below, so the order
    // std::sort leaves among tied events cannot change width_ (and the
    // rebuilt buckets may hold ties in any order: see the pop contract).
    std::sort(scratch_.begin(),
              scratch_.begin() + static_cast<std::ptrdiff_t>(sample),
              [](const Event& a, const Event& b) { return a.time < b.time; });
    const double span =
        scratch_[sample - 1].time - scratch_[0].time;
    const double avg_gap = span / static_cast<double>(sample - 1);
    if (avg_gap > 0.0 && std::isfinite(avg_gap)) width_ = 2.0 * avg_gap;
  }
  if (!(width_ > 0.0) || !std::isfinite(width_)) width_ = 1.0;

  buckets_.resize(nbuckets);
  nbuckets_ = nbuckets;
  bucket_mask_ = nbuckets_ - 1;
  cmin_bucket_ = kNpos;
  for (const Event& e : scratch_) {
    std::vector<Event>& bucket = buckets_[bucket_of(e.time)];
    bucket.insert(descending_pos(bucket, e.time), e);
  }
}

}  // namespace msol::core
