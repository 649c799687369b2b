// Service throughput study: the QueryService absorbing a hot repeated
// query from many client threads, across a (threads x cache on/off x
// fault rate) grid.  The quantity of interest is the multiplier the
// versioned cover cache and request coalescing buy over re-executing the
// distributed protocol for every call — the harness fails loudly if the
// fault-free hot path does not clear 3x.
//
//   $ ./bench/fig_service_throughput [entities] [repeat-per-thread]
//                                    [transport]
//     (defaults 1500, 150, sim; transport ∈ sim | tcp)

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "service/catalogs.h"
#include "service/query_service.h"

using namespace hyperion;               // NOLINT — bench brevity
using namespace hyperion::bench_util;   // NOLINT

namespace {

struct RunResult {
  double qps = 0;
  double wall_ms = 0;
  uint64_t ok = 0;
  uint64_t loud_failures = 0;
  QueryService::Stats stats;
};

RunResult DriveHotQuery(const ServiceCatalog& catalog, size_t client_threads,
                        bool cache_on, double fault_rate, size_t repeat,
                        ServiceTransport transport) {
  QueryServiceOptions opts;
  opts.num_workers = client_threads;
  opts.queue_capacity = client_threads * 4 + 4;
  opts.cache_entries = cache_on ? 1024 : 0;
  opts.transport = transport;
  if (fault_rate > 0) {
    opts.fault_plan.seed = 7;
    opts.fault_plan.default_link.drop_rate = fault_rate;
    opts.fault_plan.default_link.dup_rate = fault_rate / 2;
  }
  QueryService service(catalog.store.get(), catalog.peers, opts);

  // The hot query: the shortest Hugo->MIM acquaintance path.
  QueryRequest hot;
  hot.path_peers = BioWorkload::HugoMimPaths()[2];
  hot.x_attrs = {Attribute::String(BioWorkload::AttrNameOf("Hugo"))};
  hot.y_attrs = {Attribute::String(BioWorkload::AttrNameOf("MIM"))};

  std::atomic<uint64_t> ok{0}, loud{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t t = 0; t < client_threads; ++t) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < repeat; ++i) {
        QueryResponsePtr response = service.Execute(hot);
        if (response->status.ok()) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else {
          loud.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  RunResult out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.ok = ok.load();
  out.loud_failures = loud.load();
  out.qps = out.wall_ms > 0
                ? static_cast<double>(client_threads * repeat) /
                      (out.wall_ms / 1000.0)
                : 0.0;
  out.stats = service.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  BioConfig config;
  config.num_entities = ArgOr(argc, argv, 1, 1500);
  const size_t repeat = ArgOr(argc, argv, 2, 150);
  ServiceTransport transport = ServiceTransport::kSim;
  if (argc > 3) {
    auto parsed = ParseServiceTransport(argv[3]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "transport: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    transport = parsed.value();
  }
  auto catalog = BuildBioCatalog(config);
  if (!catalog.ok()) {
    std::fprintf(stderr, "catalog: %s\n",
                 catalog.status().ToString().c_str());
    return 1;
  }

  std::printf(
      "=== Service throughput, hot repeated query (%zu entities, %zu "
      "queries/thread, %s transport) ===\n",
      config.num_entities, repeat, ServiceTransportName(transport));
  std::printf("%7s %6s %6s | %10s %9s %9s %9s %9s %6s\n", "threads", "cache",
              "fault", "qps", "sessions", "hits", "coalesce", "rejects",
              "loud");

  obs::JsonValue json_rows = obs::JsonValue::Array();
  // qps keyed by (threads, fault) for the cache-off baseline of each cell.
  std::vector<double> baseline_qps;
  bool hot_path_cleared_3x = true;
  double fault_free_speedup = 0;
  for (double fault : {0.0, 0.05}) {
    for (size_t threads : {size_t{1}, size_t{4}, size_t{8}}) {
      for (bool cache_on : {false, true}) {
        RunResult run = DriveHotQuery(catalog.value(), threads, cache_on,
                                      fault, repeat, transport);
        if (!cache_on) baseline_qps.push_back(run.qps);
        double speedup = cache_on && !baseline_qps.empty() &&
                                 baseline_qps.back() > 0
                             ? run.qps / baseline_qps.back()
                             : 0.0;
        std::printf("%7zu %6s %5.0f%% | %10.0f %9llu %9llu %9llu %9llu %6llu",
                    threads, cache_on ? "on" : "off", fault * 100, run.qps,
                    static_cast<unsigned long long>(run.stats.executed),
                    static_cast<unsigned long long>(run.stats.cache_hits),
                    static_cast<unsigned long long>(run.stats.coalesced),
                    static_cast<unsigned long long>(
                        run.stats.admission_rejects),
                    static_cast<unsigned long long>(run.loud_failures));
        if (cache_on) {
          std::printf("   (%0.1fx vs cache-off)", speedup);
          if (fault == 0.0) {
            fault_free_speedup = std::max(fault_free_speedup, speedup);
            if (speedup < 3.0) hot_path_cleared_3x = false;
          }
        }
        std::printf("\n");

        obs::JsonValue row = obs::JsonValue::Object();
        row.Set("threads", static_cast<uint64_t>(threads));
        row.Set("cache", cache_on);
        row.Set("fault_rate", fault);
        row.Set("qps", run.qps);
        row.Set("wall_ms", run.wall_ms);
        row.Set("ok", run.ok);
        row.Set("loud_failures", run.loud_failures);
        row.Set("sessions_executed", run.stats.executed);
        row.Set("cache_hits", run.stats.cache_hits);
        row.Set("coalesced", run.stats.coalesced);
        row.Set("admission_rejects", run.stats.admission_rejects);
        if (cache_on) row.Set("speedup_vs_cache_off", speedup);
        json_rows.Append(std::move(row));
      }
    }
  }

  obs::JsonValue root = obs::JsonValue::Object();
  root.Set("bench", "fig_service_throughput");
  root.Set("entities", static_cast<uint64_t>(config.num_entities));
  root.Set("repeat_per_thread", static_cast<uint64_t>(repeat));
  root.Set("transport", ServiceTransportName(transport));
  root.Set("fault_free_speedup", fault_free_speedup);
  root.Set("hot_path_cleared_3x", hot_path_cleared_3x);
  root.Set("rows", std::move(json_rows));
  WriteBenchJson("service_throughput", std::move(root));

  std::printf("\nbest fault-free cache speedup: %.1fx (acceptance: >= 3x)\n",
              fault_free_speedup);
  if (!hot_path_cleared_3x) {
    std::fprintf(stderr,
                 "FAIL: cache+coalescing did not deliver 3x on the "
                 "fault-free hot path\n");
    return 1;
  }
  return 0;
}
