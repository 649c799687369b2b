// Shared plumbing of the repository benchmark: command-line arguments,
// the result record every workload fills, latency statistics, the
// in-memory span tracer, metric-registry counter deltas, and the
// TableSource decorator that traces (and can slow down) table fetches.
//
// Every timing here is host wall clock (std::chrono::steady_clock).
// Spans are recorded only from the benchmark's own files, around calls
// into the system's public API; nothing inside src/ is instrumented.

#ifndef HYPERION_PERFBENCH_BENCH_H_
#define HYPERION_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/mapping_table.h"
#include "obs/metrics.h"
#include "storage/table_source.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

int64_t NowNs();
double MsBetween(Clock::time_point from, Clock::time_point to);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Layer-attribution self-test: fixed delay added to every cluster
  // table fetch by the TracedSource decorator (0 = off).
  int64_t fetch_delay_us = 0;
  // Scratch directory for cluster configs, write logs and span dumps.
  std::string workdir = ".bench_build/work";
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run reports.  `end_to_end` is printed with
// --trace 0, `per_layer` with --trace 1, each in the order and units of
// the manifest (BENCHMARK.json); `context` is printed either way on the
// line before the result.  Any `violations` (broken workload invariants)
// make the result "correct": false.
struct Outcome {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  // Layers (per-layer name prefixes) the workload does not run at all;
  // their per-layer metrics print as 0.
  std::set<std::string> idle_layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::string> context;
  std::vector<std::string> violations;
};

// Prints `what` to stderr, kills and reaps every child process, and
// exits non-zero without printing a result.
[[noreturn]] void Fail(const std::string& what);

// Prints the first few failed ops of a run to stderr, naming the op and
// the status it failed with.
void NoteFailure(const std::string& workload, uint64_t op,
                 const std::string& status);

// Latency samples in milliseconds.  A failed op is recorded as
// kFailedMs, so it misses every percentile.
inline constexpr double kFailedMs = 1e9;

// Each sample also carries the time window (WindowOf) its op finished in.
class Samples {
 public:
  void Add(double ms, size_t window = 0) {
    values_.push_back(ms);
    windows_.push_back(window);
  }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  double Median() const;
  // The highest percentile that still has at least ten samples beyond
  // it: the value at rank n-11 of the sorted samples.  `*pct` receives
  // the percentile that rank stands for.
  double Tail(double* pct) const;
  // Tail() of each window's samples, median over the windows; `*pct`
  // receives the median of the windows' percentiles.  With one window
  // it is Tail().
  double WindowedTail(double* pct) const;

 private:
  std::vector<double> values_;
  std::vector<size_t> windows_;
};

double MedianOf(std::vector<double> values);

// Timed phases are split into equal windows.  A host stall of a second
// or two (VM steal on a shared host) lands in one window, and it sets a
// whole-run tail (ten samples beyond it out of thousands) and dents a
// whole-run rate; the median over windows leaves it out.  Workloads
// with too few samples for a per-window tail use one window.
inline constexpr size_t kWindows = 5;

// Which of `windows` equal slices of [start, start + seconds) `t` falls
// in; anything later falls in the last.
size_t WindowOf(Clock::time_point start, int seconds, size_t windows,
                Clock::time_point t);

// Completions per window -> the median window's rate, per second.
double MedianRate(const std::vector<uint64_t>& per_window, int seconds);

// --- span tracer -------------------------------------------------------

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list, -1 = root
  uint64_t op = 0;      // op id shared by every span of one op
  int64_t arg = 0;      // span-specific count (rows, cache miss, ...)
};

// Marks the calling thread as running op `op`; when `traced`, spans
// opened on this thread until the scope ends are recorded.
class OpScope {
 public:
  OpScope(uint64_t op, bool traced);
  ~OpScope();
  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  uint64_t saved_op_;
  bool saved_traced_;
};

// One span around a call into a layer.  A no-op unless the thread is
// inside a traced OpScope.  The parent is the innermost open span of the
// same thread.
class SpanScope {
 public:
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  void set_arg(int64_t arg);

 private:
  int64_t index_ = -1;
};

// Every span recorded so far, in start order.
std::vector<Span> RecordedSpans();

// Per span: duration minus the part of it its child spans cover.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Writes the spans as JSON lines; returns false on I/O failure.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// Median duration (or self time) in ms of the spans named `name`
// (optionally only those whose arg equals `arg`); -1 when none.
double SpanMedianMs(const std::vector<Span>& spans,
                    const std::vector<int64_t>& self_ns,
                    const std::string& name, bool self_time,
                    int64_t arg = -1);

// --- metric-registry counters --------------------------------------------

// Sum of a counter over its label sets in `snap`; with `label_key` set,
// only over the label sets where that label equals `label_value`.
uint64_t CounterTotal(const hyperion::obs::MetricsSnapshot& snap,
                      const std::string& name,
                      const std::string& label_key = "",
                      const std::string& label_value = "");

// Counter totals taken at construction; Delta() reads how far each moved.
class CounterDelta {
 public:
  CounterDelta();
  double Delta(const std::string& name) const;

 private:
  hyperion::obs::MetricsSnapshot before_;
};

// Ratio with a zero-safe denominator.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// --- traced table source --------------------------------------------------

// Decorator around the TableSource a QueryService reads through.  Each
// Fetch on a traced op becomes a span named `span_name` whose arg is 1
// when the fetch went to the wire (the cluster's assembled-table cache
// missed) — and, for the layer-attribution self-test, every Fetch can
// be slowed by a fixed delay.
class TracedSource : public hyperion::TableSource {
 public:
  TracedSource(const hyperion::TableSource* inner, const char* span_name,
               int64_t delay_us);
  hyperion::Result<hyperion::VersionedTable> Fetch(
      const std::string& name) const override;

 private:
  const hyperion::TableSource* inner_;
  const char* span_name_;
  int64_t delay_us_;
  hyperion::obs::Counter* misses_;
};

// --- result output ---------------------------------------------------------

std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // HYPERION_PERFBENCH_BENCH_H_
