#ifndef ALDSP_E2E_BENCH_LOAD_H_
#define ALDSP_E2E_BENCH_LOAD_H_

// Load generation for the end-to-end benchmark: seeded key and arrival
// streams, open- and closed-loop runners, and per-op records. Everything
// here is independent of the platform; ops are callbacks.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <random>
#include <thread>
#include <vector>

namespace aldsp::bench {

using Clock = std::chrono::steady_clock;

inline int64_t MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::microseconds>(b - a).count();
}

/// Full clock resolution, so short timings are not rounded to a whole
/// microsecond.
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// An independent random stream per (seed, purpose), so adding a stream
/// never shifts the draws of another.
inline std::mt19937_64 StreamRng(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return std::mt19937_64(z ^ (z >> 31));
}

/// Zipf(theta) over ranks 0..n-1; rank 0 is the most popular.
class Zipf {
 public:
  Zipf(int n, double theta) : cdf_(n) {
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(i + 1, theta);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int Sample(std::mt19937_64& rng) const {
    double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Poisson arrival offsets (micros from load start) over `seconds`.
inline std::vector<int64_t> PoissonSchedule(double rate, double seconds,
                                            std::mt19937_64& rng) {
  std::exponential_distribution<double> gap(rate);
  std::vector<int64_t> due;
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    due.push_back(static_cast<int64_t>(t * 1e6));
  }
  return due;
}

enum class Outcome { kOk, kError, kWrong };

/// What one op returns to the load runner: its outcome and, optionally, the
/// latency of one inner call the workload reports separately (Submit).
struct OpResult {
  Outcome outcome = Outcome::kOk;
  double inner_ms = -1;
};

/// One executed op. `measured` is true when the op was due (open loop) or
/// started (closed loop) inside the measured window.
struct OpRecord {
  int kind = 0;
  bool measured = false;
  Outcome outcome = Outcome::kOk;
  /// From the due time (open loop) or the start (closed loop) to the end.
  double latency_ms = 0;
  double inner_ms = -1;
  /// How late the generator started the op; -1 when unknown. Open loop:
  /// start - due, for arrivals that found a free worker (a busy worker's
  /// delay is queueing, not generator lateness). Closed loop: the gap
  /// since the client's previous op ended. Large values mean the
  /// generator, not the server, set the arrival times.
  double late_ms = -1;
};

/// An op callback: `index` is the arrival index (open loop) or the
/// client's op count (closed loop).
using OpFn = std::function<OpResult(int64_t index)>;

/// One traffic stream. Open loop: `workers` threads serve the precomputed
/// `due_us` schedule from a shared cursor and time each op from its due
/// time. Closed loop: `workers` clients each send the next op as soon as
/// the previous one returns.
struct Stream {
  int kind = 0;
  bool open_loop = true;
  int workers = 1;
  std::vector<int64_t> due_us;
  OpFn op;
};

/// Runs every stream concurrently from a common start. Ops are measured
/// when due/started in [window_begin_us, window_end_us); open-loop
/// schedules should end at window_end_us. Returns the records of every
/// op, in no particular order. `on_thread_start(lane)` runs first on each
/// load thread (lanes number the threads from 0); the calling thread runs
/// `on_window_begin` when the measured window opens.
inline std::vector<OpRecord> RunStreams(
    std::vector<Stream>& streams, int64_t window_begin_us,
    int64_t window_end_us, const std::function<void(int)>& on_thread_start,
    const std::function<void()>& on_window_begin) {
  const Clock::time_point t0 = Clock::now();
  std::vector<std::vector<OpRecord>> per_thread;
  std::vector<Stream*> jobs;  // one per load thread
  for (Stream& s : streams) {
    for (int w = 0; w < s.workers; ++w) jobs.push_back(&s);
  }
  per_thread.resize(jobs.size());
  std::vector<std::atomic<size_t>> cursors(streams.size());
  for (auto& c : cursors) c.store(0);

  auto run_job = [&](size_t lane) {
    on_thread_start(static_cast<int>(lane));
    Stream& s = *jobs[lane];
    std::atomic<size_t>& cursor = cursors[&s - streams.data()];
    std::vector<OpRecord>& out = per_thread[lane];
    Clock::time_point last_end = Clock::now();
    for (int64_t n = 0;; ++n) {
      OpRecord rec;
      rec.kind = s.kind;
      Clock::time_point start;
      int64_t index = n;
      if (s.open_loop) {
        size_t i = cursor.fetch_add(1);
        if (i >= s.due_us.size()) break;
        index = static_cast<int64_t>(i);
        const Clock::time_point due = t0 + std::chrono::microseconds(s.due_us[i]);
        const bool free = Clock::now() <= due;
        std::this_thread::sleep_until(due);
        if (free) rec.late_ms = MillisBetween(due, Clock::now());
        rec.measured = s.due_us[i] >= window_begin_us;
        start = due;  // queueing behind busy workers counts as latency
      } else {
        start = Clock::now();
        const int64_t offset = MicrosBetween(t0, start);
        if (offset >= window_end_us) break;
        rec.measured = offset >= window_begin_us;
        rec.late_ms = MillisBetween(last_end, start);
      }
      OpResult r = s.op(index);
      last_end = Clock::now();
      rec.latency_ms = MillisBetween(start, last_end);
      rec.outcome = r.outcome;
      rec.inner_ms = r.inner_ms;
      out.push_back(rec);
    }
  };
  std::vector<std::thread> threads;
  for (size_t lane = 0; lane < jobs.size(); ++lane) {
    threads.emplace_back(run_job, lane);
  }
  std::this_thread::sleep_until(t0 + std::chrono::microseconds(window_begin_us));
  on_window_begin();
  for (std::thread& t : threads) t.join();

  std::vector<OpRecord> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
inline double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

}  // namespace aldsp::bench

#endif  // ALDSP_E2E_BENCH_LOAD_H_
