// Exporter tests: JSON escaping, the ordered JsonValue document, and the
// golden shapes of the metrics/trace JSON and CSV serializations.

#include "obs/export.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace hyperion {
namespace obs {
namespace {

TEST(EscapeJsonTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(EscapeJson("plain"), "plain");
  EXPECT_EQ(EscapeJson("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapeJson("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapeJson("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(EscapeJson(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonValueTest, ObjectKeysKeepInsertionOrder) {
  JsonValue obj = JsonValue::Object();
  obj.Set("zeta", 1);
  obj.Set("alpha", "two");
  obj.Set("flag", true);
  obj.Set("nothing", JsonValue());
  EXPECT_EQ(obj.ToJson(),
            "{\"zeta\":1,\"alpha\":\"two\",\"flag\":true,\"nothing\":null}");
}

TEST(JsonValueTest, NestedArraysAndPrettyPrint) {
  JsonValue root = JsonValue::Object();
  JsonValue arr = JsonValue::Array();
  arr.Append(1);
  arr.Append(2.5);
  root.Set("xs", std::move(arr));
  EXPECT_EQ(root.ToJson(), "{\"xs\":[1,2.5]}");
  EXPECT_EQ(root.ToJson(2), "{\n  \"xs\": [\n    1,\n    2.5\n  ]\n}");
}

TEST(JsonValueTest, NumbersRoundTrip) {
  JsonValue obj = JsonValue::Object();
  obj.Set("big", static_cast<uint64_t>(18446744073709551615ull));
  obj.Set("neg", static_cast<int64_t>(-42));
  EXPECT_EQ(obj.ToJson(), "{\"big\":18446744073709551615,\"neg\":-42}");
}

TEST(MetricsExportTest, GoldenJson) {
  MetricRegistry reg;
  reg.GetCounter("msgs", {{"type", "CoverBatch"}})->Add(3);
  reg.GetGauge("depth")->Set(2);
  reg.GetHistogram("lat", {10, 100})->Observe(7);
  std::string json = MetricsToJson(reg.Snapshot(), 0);
#if HYPERION_METRICS
  EXPECT_EQ(json,
            "{\"counters\":[{\"name\":\"msgs\","
            "\"labels\":{\"type\":\"CoverBatch\"},\"value\":3}],"
            "\"gauges\":[{\"name\":\"depth\",\"value\":2}],"
            "\"histograms\":[{\"name\":\"lat\",\"bounds\":[10,100],"
            "\"bucket_counts\":[1,0,0],\"count\":1,\"sum\":7,"
            "\"p50\":5,\"p90\":9,\"p99\":10}]}");
#else
  // Structure is identical; values read zero.
  EXPECT_NE(json.find("\"counters\":[{\"name\":\"msgs\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":0"), std::string::npos);
#endif
}

TEST(MetricsExportTest, CsvHasHeaderAndHistogramBucketRows) {
  MetricRegistry reg;
  reg.GetCounter("msgs", {{"type", "A"}})->Add(1);
  reg.GetHistogram("lat", {10})->Observe(3);
  std::string csv = MetricsToCsv(reg.Snapshot());
  std::istringstream lines(csv);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "metric,kind,labels,le,value");
  size_t rows = 0;
  size_t histogram_rows = 0;
  std::vector<std::string> quantile_rows;
  while (std::getline(lines, line)) {
    ++rows;
    if (line.rfind("lat,histogram", 0) == 0) ++histogram_rows;
    if (line.rfind("lat,quantile", 0) == 0) quantile_rows.push_back(line);
  }
  // One counter, bounds.size()+1 buckets, and p50/p90/p99.
  EXPECT_EQ(rows, 1 + 2 + 3);
  EXPECT_EQ(histogram_rows, 2u); // le=10 and le=inf
#if HYPERION_METRICS
  // One observation of 3 in [0, 10]: interpolated within the bucket.
  EXPECT_EQ(quantile_rows, (std::vector<std::string>{
                               "lat,quantile,,p50,5", "lat,quantile,,p90,9",
                               "lat,quantile,,p99,10"}));
#else
  EXPECT_EQ(quantile_rows.size(), 3u);
#endif
}

TEST(TraceExportTest, JsonAndCsvCarryAllFields) {
  TraceEvent ev;
  ev.virtual_us = 1500;
  ev.wall_us = 20;
  ev.session = 7;
  ev.partition = 2;
  ev.hop = 1;
  ev.peer = "P2";
  ev.kind = "cover.batch_sent";
  ev.detail = "eos";
  ev.value = 64;
  std::string json = TraceToJson({ev}, 0);
  for (const char* needle :
       {"\"virtual_us\":1500", "\"session\":7", "\"partition\":2",
        "\"hop\":1", "\"peer\":\"P2\"", "\"kind\":\"cover.batch_sent\"",
        "\"detail\":\"eos\"", "\"value\":64"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
  std::string csv = TraceToCsv({ev});
  EXPECT_NE(
      csv.find("1500,20,7,2,1,P2,cover.batch_sent,eos,64"),
      std::string::npos);
}

TEST(WriteTextFileTest, WritesAndFailsLoudly) {
  std::string path = ::testing::TempDir() + "/obs_export_test.json";
  ASSERT_TRUE(WriteTextFile(path, "{\"ok\":true}\n").ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), "{\"ok\":true}\n");
  std::remove(path.c_str());
  EXPECT_FALSE(WriteTextFile("/nonexistent-dir/x/y.json", "x").ok());
}

}  // namespace
}  // namespace obs
}  // namespace hyperion
