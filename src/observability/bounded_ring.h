#ifndef ALDSP_OBSERVABILITY_BOUNDED_RING_H_
#define ALDSP_OBSERVABILITY_BOUNDED_RING_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace aldsp::observability {

/// The retained-history ring behind the audit, slow-query and workload
/// logs: appends stamp a monotonically increasing `seq` into the entry and
/// evict the oldest entry once `capacity` are held. Capacity 0 retains
/// nothing but still counts. Appends are one short mutex hold (an entry
/// move), so the execute hot path never renders under the lock; readers
/// work on a snapshot copy.
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity) : capacity_(capacity) {}

  /// Stamps `entry.seq`, then runs `stamp(entry)` under the ring's lock so
  /// any further stamps (an arrival offset) are ordered like the sequence
  /// numbers. Returns the assigned sequence number.
  template <typename Stamp>
  int64_t Append(T entry, Stamp&& stamp) {
    std::lock_guard<std::mutex> lock(mu_);
    entry.seq = next_seq_++;
    stamp(entry);
    const int64_t seq = entry.seq;
    if (capacity_ == 0) return seq;
    if (ring_.size() >= capacity_) ring_.pop_front();
    ring_.push_back(std::move(entry));
    return seq;
  }
  int64_t Append(T entry) {
    return Append(std::move(entry), [](T&) {});
  }

  /// Oldest-to-newest copy of the retained entries.
  std::vector<T> Records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<T>(ring_.begin(), ring_.end());
  }
  /// Every append ever made, evicted or not.
  int64_t total_appended() const {
    std::lock_guard<std::mutex> lock(mu_);
    return next_seq_;
  }
  size_t capacity() const { return capacity_; }
  /// Entries retained now.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
  }

  /// Drops the retained entries; sequence numbering continues. `reset`
  /// runs under the lock, for state the owner's stamps read.
  template <typename Reset>
  void Clear(Reset&& reset) {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    reset();
  }
  void Clear() {
    Clear([] {});
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<T> ring_;
  int64_t next_seq_ = 0;
};

}  // namespace aldsp::observability

#endif  // ALDSP_OBSERVABILITY_BOUNDED_RING_H_
