#ifndef ALDSP_E2E_BENCH_TRACE_H_
#define ALDSP_E2E_BENCH_TRACE_H_

// In-memory spans recorded by the benchmark around its calls into the
// platform's public API, written out as Chrome trace_event JSON at exit.
// Spans nest per thread: a span opened while another is open on the same
// thread becomes its child.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "load.h"

namespace aldsp::bench {

struct Span {
  std::string name;
  int lane = 0;
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  int64_t start_us = 0;
  int64_t dur_us = 0;
  std::vector<std::pair<std::string, double>> args;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Lane (Chrome tid) of spans the calling thread records.
  static void SetLane(int lane) { CurrentLane() = lane; }

  /// Records one span from construction to destruction; a no-op when
  /// tracing is off.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
      if (!tracer_.on_) return;
      span_.name = std::move(name);
      span_.lane = CurrentLane();
      span_.parent = CurrentParent();
      {
        std::lock_guard<std::mutex> lock(tracer_.mutex_);
        span_.id = ++tracer_.next_id_;
      }
      CurrentParent() = span_.id;
      start_ = Clock::now();
    }
    ~Scope() {
      if (!tracer_.on_) return;
      Clock::time_point end = Clock::now();
      span_.start_us = MicrosBetween(tracer_.origin_, start_);
      span_.dur_us = MicrosBetween(start_, end);
      CurrentParent() = span_.parent;
      std::lock_guard<std::mutex> lock(tracer_.mutex_);
      tracer_.spans_.push_back(std::move(span_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    void Arg(std::string key, double value) {
      if (tracer_.on_) span_.args.emplace_back(std::move(key), value);
    }
    /// Elapsed micros so far, at full clock resolution (valid whether or
    /// not tracing is on).
    double ElapsedMicros() const { return 1e3 * MillisBetween(start_, Clock::now()); }

   private:
    Tracer& tracer_;
    Span span_;
    Clock::time_point start_ = Clock::now();
  };

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// Mean self time per span name: each span's duration minus the part of
  /// it its children cover.
  std::map<std::string, double> MeanSelfMicros() const {
    std::vector<Span> all = spans();
    std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span& s : all) {
      if (s.parent != 0) {
        children[s.parent].emplace_back(s.start_us, s.start_us + s.dur_us);
      }
    }
    std::map<std::string, std::pair<double, int64_t>> acc;
    for (const Span& s : all) {
      int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<int64_t, int64_t>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t cur_begin = -1, cur_end = -1;
        const int64_t lo = s.start_us, hi = s.start_us + s.dur_us;
        for (auto [b, e] : iv) {
          b = std::max(b, lo);
          e = std::min(e, hi);
          if (e <= b) continue;
          if (b > cur_end) {
            covered += cur_end - cur_begin;
            cur_begin = b;
            cur_end = e;
          } else {
            cur_end = std::max(cur_end, e);
          }
        }
        covered += cur_end - cur_begin;
      }
      auto& [sum, n] = acc[s.name];
      sum += static_cast<double>(s.dur_us - covered);
      ++n;
    }
    std::map<std::string, double> out;
    for (const auto& [name, a] : acc) out[name] = a.first / static_cast<double>(a.second);
    return out;
  }

  /// Writes every span as a complete ("X") trace_event; opens in Perfetto.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    bool first = true;
    for (const Span& s : spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%lld,\"dur\":%lld,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld",
                   first ? "" : ",", s.name.c_str(), s.lane,
                   static_cast<long long>(s.start_us),
                   static_cast<long long>(s.dur_us),
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent));
      for (const auto& [k, v] : s.args) {
        std::fprintf(f, ",\"%s\":%.17g", k.c_str(), v);
      }
      std::fprintf(f, "}}");
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int& CurrentLane() {
    thread_local int lane = 0;
    return lane;
  }
  static int64_t& CurrentParent() {
    thread_local int64_t parent = 0;
    return parent;
  }

  const bool on_;
  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  int64_t next_id_ = 0;
};

}  // namespace aldsp::bench

#endif  // ALDSP_E2E_BENCH_TRACE_H_
