// Exporters: metrics snapshots and trace buffers as JSON and CSV, plus
// the small dependency-free JSON document the bench harnesses and the
// CLI build their machine-readable output with.
//
// JSON output is deterministic (object keys keep insertion order; the
// registry already sorts instruments by name+labels), so goldens are
// stable and BENCH_*.json files diff cleanly across runs.

#ifndef HYPERION_OBS_EXPORT_H_
#define HYPERION_OBS_EXPORT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperion {
namespace obs {

/// \brief Minimal ordered JSON document (no external deps).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray,
                    kObject };

  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}                // NOLINT
  JsonValue(int v) : kind_(Kind::kInt), int_(v) {}                   // NOLINT
  JsonValue(int64_t v) : kind_(Kind::kInt), int_(v) {}               // NOLINT
  JsonValue(uint64_t v) : kind_(Kind::kUint), uint_(v) {}            // NOLINT
  JsonValue(double v) : kind_(Kind::kDouble), double_(v) {}          // NOLINT
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}     // NOLINT
  JsonValue(std::string s)                                           // NOLINT
      : kind_(Kind::kString), string_(std::move(s)) {}

  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }

  Kind kind() const { return kind_; }

  /// \brief Sets `key` on an object (appends; keys keep insertion order).
  JsonValue& Set(const std::string& key, JsonValue value);
  /// \brief Appends to an array.
  JsonValue& Append(JsonValue value);

  /// \brief Serializes; `indent` > 0 pretty-prints with that many spaces.
  std::string ToJson(int indent = 0) const;

 private:
  void Write(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// \brief JSON string escaping (quotes, backslash, control chars).
std::string EscapeJson(std::string_view raw);

/// \brief Metrics snapshot as a JSON document:
/// {"counters": [...], "gauges": [...], "histograms": [...]}.
JsonValue MetricsJson(const MetricsSnapshot& snapshot);
std::string MetricsToJson(const MetricsSnapshot& snapshot, int indent = 2);

/// \brief Trace events as a JSON array of objects.
JsonValue TraceJson(const std::vector<TraceEvent>& events);
std::string TraceToJson(const std::vector<TraceEvent>& events,
                        int indent = 2);

/// \brief Counters and gauges as "name,labels,value" CSV rows; histograms
/// flattened to one row per bucket ("name,labels,le,count"), then one
/// "quantile" row each for p50, p90 and p99 (the `le` column names it).
std::string MetricsToCsv(const MetricsSnapshot& snapshot);

/// \brief Trace events as CSV
/// (virtual_us,wall_us,session,partition,hop,peer,kind,detail,value).
std::string TraceToCsv(const std::vector<TraceEvent>& events);

/// \brief Writes `content` to `path` (truncating).
Status WriteTextFile(const std::string& path, const std::string& content);

}  // namespace obs
}  // namespace hyperion

#endif  // HYPERION_OBS_EXPORT_H_
