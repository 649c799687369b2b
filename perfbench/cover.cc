// cover-tcp and cover-tcp-loss: QueryService on the tcp transport, cover
// cache off, the seven Hugo->MIM paths.  Three client threads, each a
// closed-loop caller walking the paths in its own seeded order, each
// with a front end of its own (a QueryService over the shared catalog),
// so no request ever coalesces with another client's: with one shared
// service the share of coalesced requests, and with it qps, depended on
// how the clients' seeded path orders happened to line up.
//
// cover-tcp-loss is the same run under a seeded 5% drop / 2.5% dup
// FaultPlan; its set-up is identical to cover-tcp's.  Its sessions wait
// on the fixed 500 ms retransmit timer, so its latencies sit on 500 ms
// steps, and the sample count decides which step the tail (ten samples
// beyond it) lands on: NOTES.md says why three callers.

#include <atomic>
#include <mutex>
#include <thread>

#include "service/catalogs.h"
#include "workload/bio_network.h"
#include "workloads.h"

namespace perfbench {

using namespace hyperion;  // NOLINT

namespace {

// Client threads, each one closed-loop caller with its own front end.
constexpr size_t kClients = 3;

struct ClientLog {
  Samples untraced;                 // latency of untraced queries
  Samples traced;                   // latency of traced queries
  std::vector<ProbeJob> jobs;       // traced queries, probed afterwards
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> completed;  // succeeded before the deadline, per window
};

struct Live {
  ServiceCatalog catalog;
  std::vector<std::string> reference;  // serialized cover per path
  std::vector<std::unique_ptr<QueryService>> services;
};

}  // namespace

Outcome RunCoverWorkload(const Args& args, bool loss) {
  const std::string name = args.workload;
  const auto paths = BioWorkload::HugoMimPaths();
  BioConfig bio;
  bio.num_entities = kEntities;

  QueryServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 4;
  opts.cache_entries = 0;
  opts.transport = ServiceTransport::kTcp;
  QueryServiceOptions measured = opts;
  if (loss) {
    measured.fault_plan.seed = args.seed;
    measured.fault_plan.default_link.drop_rate = 0.05;
    measured.fault_plan.default_link.dup_rate = 0.025;
  }

  // --- set-up, repeated; the last one is measured -------------------------
  // Catalog build, the single-process (sim, loss-free) reference covers,
  // and one untimed warm-up query per path over loss-free tcp.  Both
  // workloads do exactly this work, so their setup_s agree.
  std::vector<double> setup_ms;
  std::unique_ptr<Live> live;
  for (int round = 0; round < kSetups; ++round) {
    live.reset();
    const auto t0 = Clock::now();
    auto next = std::make_unique<Live>();
    auto catalog = BuildBioCatalog(bio);
    if (!catalog.ok()) Fail("catalog: " + catalog.status().ToString());
    next->catalog = std::move(catalog).value();
    const ServiceCatalog& cat = next->catalog;
    {
      QueryServiceOptions ref_opts;
      ref_opts.num_workers = 1;
      ref_opts.cache_entries = 0;
      QueryService reference(cat.store.get(), cat.peers, ref_opts);
      for (const auto& dbs : paths) {
        QueryResponsePtr r = reference.Execute(PathRequest(dbs));
        if (!r->status.ok()) {
          Fail(name + ": reference query " + PathName(dbs) +
               " failed: " + r->status.ToString());
        }
        next->reference.push_back(r->cover->Serialize());
      }
    }
    auto warm_up = [&](QueryService& service) {
      for (size_t p = 0; p < paths.size(); ++p) {
        QueryResponsePtr r = service.Execute(PathRequest(paths[p]));
        if (!r->status.ok() || r->cover->Serialize() != next->reference[p]) {
          Fail(name + ": warm-up cover of " + PathName(paths[p]) +
               " differs from the reference");
        }
      }
    };
    if (loss) {
      QueryService loss_free(cat.store.get(), cat.peers, opts);
      warm_up(loss_free);
    }
    for (size_t i = 0; i < kClients; ++i) {
      next->services.push_back(std::make_unique<QueryService>(
          cat.store.get(), cat.peers, measured));
    }
    if (!loss) warm_up(*next->services.front());
    setup_ms.push_back(MsBetween(t0, Clock::now()));
    live = std::move(next);
  }
  const ServiceCatalog& cat = live->catalog;

  // --- timed closed loop ---------------------------------------------------
  CounterDelta counters;
  const auto net_before = obs::MetricRegistry::Default().Snapshot();
  std::atomic<uint64_t> next_op{1};
  std::vector<ClientLog> logs(kClients);
  std::mutex mismatch_mu;
  std::string mismatch;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::seconds(args.seconds);
  // cover-tcp-loss has ~95 samples a run, too few for a tail per window.
  const size_t windows = loss ? 1 : kWindows;
  for (ClientLog& log : logs) log.completed.assign(windows, 0);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      ClientLog& log = logs[t];
      QueryService& service = *live->services[t];
      const std::vector<size_t> order =
          SeededPathOrder(args.seed * 1000003 + t, paths.size());
      for (size_t i = 0; Clock::now() < deadline; ++i) {
        const size_t path = order[i % order.size()];
        const uint64_t op = next_op.fetch_add(1);
        const bool traced = args.trace && op % 2 == 1;
        OpScope scope(op, traced);
        Samples& samples = traced ? log.traced : log.untraced;
        ++log.attempted;
        const auto sent = Clock::now();
        Result<QueryFuture> future = [&] {
          SpanScope submit("service.Submit");
          return service.Submit(PathRequest(paths[path]));
        }();
        QueryResponsePtr response;
        if (future.ok()) response = future.value().get();
        const auto done = Clock::now();
        const double ms = MsBetween(sent, done);
        const size_t window = WindowOf(start, args.seconds, windows, done);
        if (!future.ok() || !response->status.ok()) {
          NoteFailure(name, op,
                      (future.ok() ? response->status : future.status())
                          .ToString());
          ++log.failed;
          samples.Add(kFailedMs, window);
          continue;
        }
        samples.Add(ms, window);
        if (done <= deadline) ++log.completed[window];
        if (response->cover->Serialize() != live->reference[path]) {
          std::lock_guard<std::mutex> lock(mismatch_mu);
          if (mismatch.empty()) {
            mismatch = name + ": cover of " + PathName(paths[path]) +
                       " at op " + std::to_string(op) +
                       " differs from the reference (seed " +
                       std::to_string(args.seed) + ")";
          }
        }
        if (traced) {
          ProbeJob job;
          job.op = op;
          job.path = path;
          job.cover = response->cover;
          job.latency_ms = ms;
          log.jobs.push_back(std::move(job));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  if (!mismatch.empty()) Fail(mismatch);

  // Layer probes for the traced queries, now that nothing is timed.
  LayerProbe probe;
  std::vector<double> protocol_ms;
  for (const ClientLog& log : logs) {
    for (const ProbeJob& job : log.jobs) {
      OpScope scope(job.op, true);
      const double core_ms =
          probe.Cover(*cat.store, cat.peers, paths[job.path]);
      protocol_ms.push_back(job.latency_ms - core_ms);
      probe.WireCover(*job.cover);
    }
  }

  // --- results -------------------------------------------------------------
  Outcome out;
  // No cluster and no sharded storage behind these services.
  out.idle_layers = {"cluster", "storage"};
  Samples untraced, traced, all;
  std::vector<uint64_t> completed(windows, 0);
  for (const ClientLog& log : logs) {
    untraced.Append(log.untraced);
    traced.Append(log.traced);
    out.attempted += log.attempted;
    out.failed += log.failed;
    for (size_t w = 0; w < windows; ++w) completed[w] += log.completed[w];
  }
  all.Append(untraced);
  all.Append(traced);
  double tail_pct = 0;
  const double tail = all.WindowedTail(&tail_pct);

  out.end_to_end["setup_s"] = {MedianOf(setup_ms) / 1000.0, "s"};
  out.end_to_end["query_p50_ms"] = {all.Median(), "ms"};
  out.end_to_end["query_tail_ms"] = {tail, "ms"};
  // Completions inside the timed phase: queries still in flight at the
  // deadline are waited for (their latency counts) but not counted here,
  // so a slow straggler cannot stretch the denominator.
  out.end_to_end["query_qps"] = {MedianRate(completed, args.seconds), "1/s"};
  out.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB"};
  // Without loss nothing may fail, time out or be resent.
  if (!loss && out.failed > 0) {
    out.violations.push_back(std::to_string(out.failed) + " of " +
                             std::to_string(out.attempted) +
                             " queries failed on a loss-free run");
  }

  if (args.trace) {
    const auto net_after = obs::MetricRegistry::Default().Snapshot();
    const std::vector<Span> spans = RecordedSpans();
    const std::vector<int64_t> self = SelfTimesNs(spans);
    auto& L = out.per_layer;
    AddServiceCoreMetrics(spans, self, counters, &out);
    AddP2pCounterMetrics(net_before, net_after, "tcp", counters, &out);
    L["p2p.protocol_ms"] = {MedianOf(protocol_ms), "ms"};
    const double retransmits = counters.Delta("proto.retransmits");
    probe.AddWireMetrics(&out);
    if (!loss && (retransmits != 0 || L["p2p.first_send_ratio"].value != 1.0 ||
                  L["p2p.dups_suppressed_per_query"].value != 0)) {
      out.violations.push_back(
          "loss-free run resent or deduplicated messages: " +
          JsonNumber(retransmits) + " retransmits, first_send_ratio " +
          JsonNumber(L["p2p.first_send_ratio"].value) +
          ", dups_suppressed_per_query " +
          JsonNumber(L["p2p.dups_suppressed_per_query"].value));
    }
    L["trace.overhead_pct"] = {
        (Ratio(traced.Median(), untraced.Median()) - 1.0) * 100.0, "%"};
    const std::string path = args.workdir + "/spans-" + name + ".jsonl";
    if (!WriteSpans(spans, path)) Fail("cannot write " + path);
    out.context["spans"] = path;
  }
  out.context["entities"] = std::to_string(kEntities);
  out.context["client_threads"] = std::to_string(kClients);
  out.context["front_ends"] = "one QueryService per client thread";
  out.context["load"] = "closed loop, cover cache off";
  out.context["read_write"] = "1:0";
  out.context["fault_plan"] = loss ? "drop 0.05 dup 0.025" : "none";
  out.context["query_samples"] = std::to_string(all.size());
  out.context["query_tail_pct"] = JsonNumber(tail_pct);
  out.context["windows"] = std::to_string(windows);
  out.context["table_rows_growth"] = "0";
  out.context["setup_ms"] = Joined(setup_ms);
  return out;
}

}  // namespace perfbench
