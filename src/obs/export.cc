#include "obs/export.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace hyperion {
namespace obs {

namespace {

// The quantiles both exporters print for every histogram.
constexpr std::pair<const char*, double> kQuantiles[] = {
    {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}};

void AppendDouble(std::string* out, double v) {
  if (std::isnan(v) || std::isinf(v)) {  // not representable in JSON
    out->append("null");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Round-trippable but readable: prefer the shortest of %.17g and %g
  // that parses back exactly.
  char shorter[64];
  std::snprintf(shorter, sizeof(shorter), "%g", v);
  if (std::strtod(shorter, nullptr) == v) {
    out->append(shorter);
  } else {
    out->append(buf);
  }
}

void AppendIndent(std::string* out, int indent, int depth) {
  if (indent <= 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent) * depth, ' ');
}

std::string LabelsToString(const LabelSet& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out.push_back(';');
    out += k;
    out.push_back('=');
    out += v;
  }
  return out;
}

JsonValue LabelsJson(const LabelSet& labels) {
  JsonValue out = JsonValue::Object();
  for (const auto& [k, v] : labels) out.Set(k, v);
  return out;
}

void AppendCsvField(std::string* out, std::string_view field) {
  bool quote = field.find_first_of(",\"\n") != std::string_view::npos;
  if (!quote) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

}  // namespace

std::string EscapeJson(std::string_view raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  kind_ = Kind::kObject;
  object_.emplace_back(key, std::move(value));
  return *this;
}

JsonValue& JsonValue::Append(JsonValue value) {
  kind_ = Kind::kArray;
  array_.push_back(std::move(value));
  return *this;
}

void JsonValue::Write(std::string* out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull:
      out->append("null");
      break;
    case Kind::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRId64, int_);
      out->append(buf);
      break;
    }
    case Kind::kUint: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%" PRIu64, uint_);
      out->append(buf);
      break;
    }
    case Kind::kDouble:
      AppendDouble(out, double_);
      break;
    case Kind::kString:
      out->push_back('"');
      out->append(EscapeJson(string_));
      out->push_back('"');
      break;
    case Kind::kArray: {
      if (array_.empty()) {
        out->append("[]");
        break;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i) out->push_back(',');
        AppendIndent(out, indent, depth + 1);
        array_[i].Write(out, indent, depth + 1);
      }
      AppendIndent(out, indent, depth);
      out->push_back(']');
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out->append("{}");
        break;
      }
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i) out->push_back(',');
        AppendIndent(out, indent, depth + 1);
        out->push_back('"');
        out->append(EscapeJson(object_[i].first));
        out->append(indent > 0 ? "\": " : "\":");
        object_[i].second.Write(out, indent, depth + 1);
      }
      AppendIndent(out, indent, depth);
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::ToJson(int indent) const {
  std::string out;
  Write(&out, indent, 0);
  return out;
}

JsonValue MetricsJson(const MetricsSnapshot& snapshot) {
  JsonValue root = JsonValue::Object();
  JsonValue counters = JsonValue::Array();
  for (const CounterSnapshot& c : snapshot.counters) {
    JsonValue item = JsonValue::Object();
    item.Set("name", c.name);
    if (!c.labels.empty()) item.Set("labels", LabelsJson(c.labels));
    item.Set("value", c.value);
    counters.Append(std::move(item));
  }
  root.Set("counters", std::move(counters));
  JsonValue gauges = JsonValue::Array();
  for (const GaugeSnapshot& g : snapshot.gauges) {
    JsonValue item = JsonValue::Object();
    item.Set("name", g.name);
    if (!g.labels.empty()) item.Set("labels", LabelsJson(g.labels));
    item.Set("value", g.value);
    gauges.Append(std::move(item));
  }
  root.Set("gauges", std::move(gauges));
  JsonValue histograms = JsonValue::Array();
  for (const HistogramSnapshot& h : snapshot.histograms) {
    JsonValue item = JsonValue::Object();
    item.Set("name", h.name);
    if (!h.labels.empty()) item.Set("labels", LabelsJson(h.labels));
    JsonValue bounds = JsonValue::Array();
    for (int64_t b : h.bounds) bounds.Append(b);
    item.Set("bounds", std::move(bounds));
    JsonValue buckets = JsonValue::Array();
    for (uint64_t c : h.bucket_counts) buckets.Append(c);
    item.Set("bucket_counts", std::move(buckets));
    item.Set("count", h.count);
    item.Set("sum", h.sum);
    for (const auto& [name, q] : kQuantiles) item.Set(name, h.Quantile(q));
    histograms.Append(std::move(item));
  }
  root.Set("histograms", std::move(histograms));
  return root;
}

std::string MetricsToJson(const MetricsSnapshot& snapshot, int indent) {
  return MetricsJson(snapshot).ToJson(indent);
}

JsonValue TraceJson(const std::vector<TraceEvent>& events) {
  JsonValue out = JsonValue::Array();
  for (const TraceEvent& ev : events) {
    JsonValue item = JsonValue::Object();
    item.Set("virtual_us", ev.virtual_us);
    item.Set("wall_us", ev.wall_us);
    if (ev.session != 0) item.Set("session", ev.session);
    if (ev.partition >= 0) item.Set("partition", ev.partition);
    if (ev.hop >= 0) item.Set("hop", ev.hop);
    item.Set("peer", ev.peer);
    item.Set("kind", ev.kind);
    if (!ev.detail.empty()) item.Set("detail", ev.detail);
    item.Set("value", ev.value);
    out.Append(std::move(item));
  }
  return out;
}

std::string TraceToJson(const std::vector<TraceEvent>& events, int indent) {
  return TraceJson(events).ToJson(indent);
}

std::string MetricsToCsv(const MetricsSnapshot& snapshot) {
  std::string out = "metric,kind,labels,le,value\n";
  char buf[64];
  for (const CounterSnapshot& c : snapshot.counters) {
    AppendCsvField(&out, c.name);
    out += ",counter,";
    AppendCsvField(&out, LabelsToString(c.labels));
    std::snprintf(buf, sizeof(buf), ",,%" PRIu64 "\n", c.value);
    out += buf;
  }
  for (const GaugeSnapshot& g : snapshot.gauges) {
    AppendCsvField(&out, g.name);
    out += ",gauge,";
    AppendCsvField(&out, LabelsToString(g.labels));
    std::snprintf(buf, sizeof(buf), ",,%" PRId64 "\n", g.value);
    out += buf;
  }
  for (const HistogramSnapshot& h : snapshot.histograms) {
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
      AppendCsvField(&out, h.name);
      out += ",histogram,";
      AppendCsvField(&out, LabelsToString(h.labels));
      if (i < h.bounds.size()) {
        std::snprintf(buf, sizeof(buf), ",%" PRId64 ",%" PRIu64 "\n",
                      h.bounds[i], h.bucket_counts[i]);
      } else {
        std::snprintf(buf, sizeof(buf), ",inf,%" PRIu64 "\n",
                      h.bucket_counts[i]);
      }
      out += buf;
    }
    for (const auto& [name, q] : kQuantiles) {
      AppendCsvField(&out, h.name);
      out += ",quantile,";
      AppendCsvField(&out, LabelsToString(h.labels));
      std::snprintf(buf, sizeof(buf), ",%s,%" PRId64 "\n", name,
                    h.Quantile(q));
      out += buf;
    }
  }
  return out;
}

std::string TraceToCsv(const std::vector<TraceEvent>& events) {
  std::string out =
      "virtual_us,wall_us,session,partition,hop,peer,kind,detail,value\n";
  char buf[128];
  for (const TraceEvent& ev : events) {
    std::snprintf(buf, sizeof(buf),
                  "%" PRId64 ",%" PRId64 ",%" PRIu64 ",%" PRId64 ",%d,",
                  ev.virtual_us, ev.wall_us, ev.session, ev.partition,
                  ev.hop);
    out += buf;
    AppendCsvField(&out, ev.peer);
    out.push_back(',');
    AppendCsvField(&out, ev.kind);
    out.push_back(',');
    AppendCsvField(&out, ev.detail);
    std::snprintf(buf, sizeof(buf), ",%" PRId64 "\n", ev.value);
    out += buf;
  }
  return out;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write '" + path + "'");
  out << content;
  out.close();
  return out.good() ? Status::OK()
                    : Status::IoError("write failed for '" + path + "'");
}

}  // namespace obs
}  // namespace hyperion
