#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>

#include "procs.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void Fail(const std::string& what) {
  std::cerr << "perfbench: " << what << std::endl;
  KillAllChildren();
  std::exit(2);
}

void NoteFailure(const std::string& workload, uint64_t op,
                 const std::string& status) {
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1) < 5) {
    std::cerr << "perfbench: " << workload << " op " << op
              << " failed: " << status << std::endl;
  }
}

// --- samples -----------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  windows_.insert(windows_.end(), other.windows_.begin(),
                  other.windows_.end());
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Samples::Median() const { return MedianOf(values_); }

double Samples::Tail(double* pct) const {
  const size_t n = values_.size();
  if (n <= 10) {
    *pct = 0;
    return 0;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  *pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return sorted[n - 11];
}

double Samples::WindowedTail(double* pct) const {
  std::map<size_t, Samples> by_window;
  for (size_t i = 0; i < values_.size(); ++i) {
    by_window[windows_[i]].Add(values_[i]);
  }
  std::vector<double> tails, pcts;
  for (const auto& [window, samples] : by_window) {
    double window_pct = 0;
    tails.push_back(samples.Tail(&window_pct));
    pcts.push_back(window_pct);
  }
  *pct = MedianOf(pcts);
  return MedianOf(tails);
}

size_t WindowOf(Clock::time_point start, int seconds, size_t windows,
                Clock::time_point t) {
  const double span_ns = seconds * 1e9;
  const double at_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - start)
          .count());
  if (at_ns <= 0) return 0;
  return std::min(windows - 1,
                  static_cast<size_t>(at_ns / span_ns *
                                      static_cast<double>(windows)));
}

double MedianRate(const std::vector<uint64_t>& per_window, int seconds) {
  std::vector<double> counts(per_window.begin(), per_window.end());
  return MedianOf(counts) * static_cast<double>(per_window.size()) /
         seconds;
}

// --- tracer ------------------------------------------------------------

namespace {

std::mutex g_span_mu;
std::vector<Span> g_spans;  // guarded by g_span_mu

thread_local uint64_t t_op = 0;
thread_local bool t_traced = false;
thread_local std::vector<int64_t> t_open;  // indices of open spans

}  // namespace

OpScope::OpScope(uint64_t op, bool traced)
    : saved_op_(t_op), saved_traced_(t_traced) {
  t_op = op;
  t_traced = traced;
}

OpScope::~OpScope() {
  t_op = saved_op_;
  t_traced = saved_traced_;
}

SpanScope::SpanScope(const char* name) {
  if (!t_traced) return;
  Span span;
  span.name = name;
  span.parent = t_open.empty() ? -1 : t_open.back();
  span.op = t_op;
  {
    std::lock_guard<std::mutex> lock(g_span_mu);
    index_ = static_cast<int64_t>(g_spans.size());
    g_spans.push_back(std::move(span));
  }
  t_open.push_back(index_);
  const int64_t start = NowNs();
  std::lock_guard<std::mutex> lock(g_span_mu);
  g_spans[index_].start_ns = start;
}

SpanScope::~SpanScope() {
  if (index_ < 0) return;
  const int64_t end = NowNs();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_span_mu);
  g_spans[index_].end_ns = end;
}

void SpanScope::set_arg(int64_t arg) {
  if (index_ < 0) return;
  std::lock_guard<std::mutex> lock(g_span_mu);
  g_spans[index_].arg = arg;
}

std::vector<Span> RecordedSpans() {
  std::lock_guard<std::mutex> lock(g_span_mu);
  return g_spans;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    // Union of the child intervals, clipped to the span.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_start = 0, cur_end = -1;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_ns);
      b = std::min(b, s.end_ns);
      if (b <= a) continue;
      if (a > cur_end) {
        if (cur_end > cur_start) covered += cur_end - cur_start;
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (cur_end > cur_start) covered += cur_end - cur_start;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":" << JsonString(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << ",\"arg\":" << s.arg << "}\n";
  }
  return static_cast<bool>(out.flush());
}

double SpanMedianMs(const std::vector<Span>& spans,
                    const std::vector<int64_t>& self_ns,
                    const std::string& name, bool self_time, int64_t arg) {
  std::vector<double> values;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (name != spans[i].name) continue;
    if (arg >= 0 && spans[i].arg != arg) continue;
    const int64_t ns =
        self_time ? self_ns[i] : spans[i].end_ns - spans[i].start_ns;
    values.push_back(static_cast<double>(ns) / 1e6);
  }
  return values.empty() ? -1 : MedianOf(std::move(values));
}

// --- counters ----------------------------------------------------------

uint64_t CounterTotal(const hyperion::obs::MetricsSnapshot& snap,
                      const std::string& name, const std::string& label_key,
                      const std::string& label_value) {
  uint64_t total = 0;
  for (const auto& c : snap.counters) {
    if (c.name != name) continue;
    if (!label_key.empty()) {
      auto it = c.labels.find(label_key);
      if (it == c.labels.end() || it->second != label_value) continue;
    }
    total += c.value;
  }
  return total;
}

CounterDelta::CounterDelta()
    : before_(hyperion::obs::MetricRegistry::Default().Snapshot()) {}

double CounterDelta::Delta(const std::string& name) const {
  const auto now = hyperion::obs::MetricRegistry::Default().Snapshot();
  return static_cast<double>(CounterTotal(now, name) -
                             CounterTotal(before_, name));
}

// --- traced source -------------------------------------------------------

TracedSource::TracedSource(const hyperion::TableSource* inner,
                           const char* span_name, int64_t delay_us)
    : inner_(inner),
      span_name_(span_name),
      delay_us_(delay_us),
      misses_(hyperion::obs::MetricRegistry::Default().GetCounter(
          "cluster.table_cache_misses")) {}

hyperion::Result<hyperion::VersionedTable> TracedSource::Fetch(
    const std::string& name) const {
  SpanScope span(span_name_);
  if (delay_us_ > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
  }
  const uint64_t misses_before = misses_->value();
  auto result = inner_->Fetch(name);
  span.set_arg(misses_->value() != misses_before ? 1 : 0);
  return result;
}

// --- output -------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) v = kFailedMs;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace perfbench
