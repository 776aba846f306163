#include "runtime/metrics.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "observability/json_util.h"

namespace aldsp::runtime {

void MetricsRegistry::RecordSourceLatency(const std::string& source,
                                          int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  source_latency_[source].Record(micros);
}

void MetricsRegistry::IncrementCounter(const std::string& name,
                                       int64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] += delta;
}

void MetricsRegistry::SetCounter(const std::string& name, int64_t value) {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_[name] = value;
}

int64_t MetricsRegistry::NowMicrosLocked() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() +
         clock_skew_micros_;
}

void MetricsRegistry::RecordWindowed(const std::string& name, int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  windows_[name].Record(micros, NowMicrosLocked());
}

void MetricsRegistry::AddWindowedCounter(const std::string& name,
                                         int64_t delta) {
  std::lock_guard<std::mutex> lock(mutex_);
  windowed_counters_[name].Add(delta, NowMicrosLocked());
}

void MetricsRegistry::AdvanceClockForTest(int64_t micros) {
  std::lock_guard<std::mutex> lock(mutex_);
  clock_skew_micros_ += micros;
}

MetricsRegistry::Snapshot MetricsRegistry::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Snapshot snap;
  snap.counters = counters_;
  snap.source_latency = source_latency_;
  int64_t now = NowMicrosLocked();
  for (const auto& [name, window] : windows_) {
    snap.windows[name] = window.GetSnapshot(now);
  }
  for (const auto& [name, counter] : windowed_counters_) {
    snap.windowed_counters[name] = counter.GetSnapshot(now);
  }
  return snap;
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  source_latency_.clear();
  windows_.clear();
  windowed_counters_.clear();
}

std::string MetricsRegistry::RenderText(const Snapshot& snapshot) {
  // Key column width follows the longest key in this snapshot, so long
  // source and tenant keys ("tenant.analytics-team.wall_micros") keep the
  // value columns aligned instead of overflowing a fixed width.
  size_t width = 0;
  for (const auto& [name, value] : snapshot.counters) {
    width = std::max(width, name.size());
  }
  for (const auto& [source, h] : snapshot.source_latency) {
    width = std::max(width, source.size() + sizeof("source_latency{}") - 1);
  }
  for (const auto& [name, w] : snapshot.windows) {
    width = std::max(width, name.size() + sizeof("window{}") - 1);
  }
  for (const auto& [name, c] : snapshot.windowed_counters) {
    width = std::max(width, name.size() + sizeof("windowed_counter{}") - 1);
  }
  std::ostringstream os;
  auto key = [&](const std::string& k) -> std::ostringstream& {
    os << k << std::string(width > k.size() ? width - k.size() : 0, ' ');
    return os;
  };
  os << "=== metrics ===\n";
  for (const auto& [name, value] : snapshot.counters) {
    key(name) << " " << value << "\n";
  }
  for (const auto& [source, h] : snapshot.source_latency) {
    key("source_latency{" + source + "}")
        << " count=" << h.count
        << " mean_us=" << static_cast<int64_t>(h.MeanMicros())
        << " min_us=" << h.min_micros << " max_us=" << h.max_micros << "\n";
    for (int i = 0; i < Histogram::kBuckets; ++i) {
      if (h.counts[i] == 0) continue;
      os << "  " << Histogram::BucketLabel(i) << " " << h.counts[i] << "\n";
    }
  }
  for (const auto& [name, w] : snapshot.windows) {
    key("window{" + name + "}")
        << " 1m_count=" << w.last_1m.count
        << " 1m_mean_us=" << static_cast<int64_t>(w.last_1m.MeanMicros())
        << " 5m_count=" << w.last_5m.count
        << " 5m_mean_us=" << static_cast<int64_t>(w.last_5m.MeanMicros())
        << " total_count=" << w.total.count
        << " total_mean_us=" << static_cast<int64_t>(w.total.MeanMicros())
        << "\n";
  }
  for (const auto& [name, c] : snapshot.windowed_counters) {
    key("windowed_counter{" + name + "}")
        << " 1m=" << c.last_1m << " 5m=" << c.last_5m << " total=" << c.total
        << "\n";
  }
  return os.str();
}

namespace {

// The shared escaper (observability/json_util) behind the ostream
// interface this renderer uses: window and tenant keys are user-derived
// strings, so they need the full control-character treatment.
void AppendJsonString(std::ostringstream& os, const std::string& s) {
  std::string buf;
  observability::AppendJsonString(&buf, s);
  os << buf;
}

void AppendHistogramJson(std::ostringstream& os,
                         const MetricsRegistry::Histogram& h) {
  os << "{\"count\":" << h.count << ",\"sum_micros\":" << h.sum_micros
     << ",\"min_micros\":" << h.min_micros
     << ",\"max_micros\":" << h.max_micros << ",\"buckets\":{";
  bool bfirst = true;
  for (int i = 0; i < MetricsRegistry::Histogram::kBuckets; ++i) {
    if (!bfirst) os << ",";
    bfirst = false;
    AppendJsonString(os, MetricsRegistry::Histogram::BucketLabel(i));
    os << ":" << h.counts[i];
  }
  os << "}}";
}

}  // namespace

std::string MetricsRegistry::RenderJson(const Snapshot& snapshot) {
  std::ostringstream os;
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) os << ",";
    first = false;
    AppendJsonString(os, name);
    os << ":" << value;
  }
  os << "},\"source_latency\":{";
  first = true;
  for (const auto& [source, h] : snapshot.source_latency) {
    if (!first) os << ",";
    first = false;
    AppendJsonString(os, source);
    os << ":";
    AppendHistogramJson(os, h);
  }
  os << "},\"windows\":{";
  first = true;
  for (const auto& [name, w] : snapshot.windows) {
    if (!first) os << ",";
    first = false;
    AppendJsonString(os, name);
    os << ":{\"last_1m\":";
    AppendHistogramJson(os, w.last_1m);
    os << ",\"last_5m\":";
    AppendHistogramJson(os, w.last_5m);
    os << ",\"total\":";
    AppendHistogramJson(os, w.total);
    os << "}";
  }
  os << "},\"windowed_counters\":{";
  first = true;
  for (const auto& [name, c] : snapshot.windowed_counters) {
    if (!first) os << ",";
    first = false;
    AppendJsonString(os, name);
    os << ":{\"last_1m\":" << c.last_1m << ",\"last_5m\":" << c.last_5m
       << ",\"total\":" << c.total << "}";
  }
  os << "}}";
  return os.str();
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; everything else (the
// registry's dots, mostly) maps to '_'.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out = "_" + out;
  return out;
}

// Label values escape backslash, double quote and newline.
std::string PromLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void PromHistogram(std::ostringstream& os, const std::string& family,
                   const std::string& label,
                   const MetricsRegistry::Histogram& h) {
  int64_t cumulative = 0;
  for (int i = 0; i < MetricsRegistry::Histogram::kBuckets; ++i) {
    cumulative += h.counts[i];
    os << family << "_bucket{" << label << ",le=\"";
    if (i < MetricsRegistry::Histogram::kBuckets - 1) {
      os << MetricsRegistry::Histogram::kUpperMicros[i];
    } else {
      os << "+Inf";
    }
    os << "\"} " << cumulative << "\n";
  }
  os << family << "_sum{" << label << "} " << h.sum_micros << "\n";
  os << family << "_count{" << label << "} " << h.count << "\n";
}

}  // namespace

std::string MetricsRegistry::RenderPrometheusText(const Snapshot& snapshot) {
  std::ostringstream os;

  // Plain counters are exposed as one gauge family each; per-tenant
  // gauges ("tenant.<tenant>.<gauge>", split at the last dot) fold into
  // one family per gauge with a `tenant` label so a scrape sees a single
  // aldsp_tenant_in_flight family across every tenant.
  std::map<std::string, std::vector<std::pair<std::string, int64_t>>>
      tenant_families;
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    const size_t last_dot = name.rfind('.');
    if (name.rfind("tenant.", 0) == 0 && last_dot > sizeof("tenant.") - 1) {
      const std::string tenant =
          name.substr(sizeof("tenant.") - 1, last_dot - (sizeof("tenant.") - 1));
      tenant_families[name.substr(last_dot + 1)].emplace_back(tenant, value);
      continue;
    }
    const std::string family = "aldsp_" + PromName(name);
    if (!first) os << "\n";
    first = false;
    os << "# HELP " << family << " ALDSP counter " << name << "\n";
    os << "# TYPE " << family << " gauge\n";
    os << family << " " << value << "\n";
  }
  for (const auto& [gauge, samples] : tenant_families) {
    const std::string family = "aldsp_tenant_" + PromName(gauge);
    os << "\n# HELP " << family << " ALDSP per-tenant gauge " << gauge << "\n";
    os << "# TYPE " << family << " gauge\n";
    for (const auto& [tenant, value] : samples) {
      os << family << "{tenant=\"" << PromLabelValue(tenant) << "\"} " << value
         << "\n";
    }
  }

  if (!snapshot.source_latency.empty()) {
    os << "\n# HELP aldsp_source_latency_micros Source round-trip latency\n";
    os << "# TYPE aldsp_source_latency_micros histogram\n";
    for (const auto& [source, h] : snapshot.source_latency) {
      PromHistogram(os, "aldsp_source_latency_micros",
                    "source=\"" + PromLabelValue(source) + "\"", h);
    }
  }

  // Rolling windows and windowed counters keep the registry series name
  // as a `series` label (dots intact) with one sample per span.
  if (!snapshot.windows.empty()) {
    os << "\n# HELP aldsp_window_count Rolling-window sample count\n";
    os << "# TYPE aldsp_window_count gauge\n";
    os << "# HELP aldsp_window_sum_micros Rolling-window sample sum\n";
    os << "# TYPE aldsp_window_sum_micros gauge\n";
    for (const auto& [name, w] : snapshot.windows) {
      const std::string series = PromLabelValue(name);
      const struct {
        const char* span;
        const Histogram& h;
      } spans[] = {{"1m", w.last_1m}, {"5m", w.last_5m}, {"total", w.total}};
      for (const auto& s : spans) {
        os << "aldsp_window_count{series=\"" << series << "\",span=\""
           << s.span << "\"} " << s.h.count << "\n";
        os << "aldsp_window_sum_micros{series=\"" << series << "\",span=\""
           << s.span << "\"} " << s.h.sum_micros << "\n";
      }
    }
  }
  if (!snapshot.windowed_counters.empty()) {
    os << "\n# HELP aldsp_windowed_total Rolling-window counter\n";
    os << "# TYPE aldsp_windowed_total gauge\n";
    for (const auto& [name, c] : snapshot.windowed_counters) {
      const std::string series = PromLabelValue(name);
      const struct {
        const char* span;
        int64_t value;
      } spans[] = {{"1m", c.last_1m}, {"5m", c.last_5m}, {"total", c.total}};
      for (const auto& s : spans) {
        os << "aldsp_windowed_total{series=\"" << series << "\",span=\""
           << s.span << "\"} " << s.value << "\n";
      }
    }
  }
  return os.str();
}

}  // namespace aldsp::runtime
