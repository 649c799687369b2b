// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--fetch-delay-us <us>] [--workdir <dir>]
//   perfbench storage-node <config> <id> <entities> <log_dir|->  (internal)
//
// Workloads: cover-tcp, cover-tcp-loss, cluster-rw, cluster-churn.  The
// last stdout line is the result object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1.  The line before it is a context object (build type,
// catalog size, clients, read:write mix, tail percentile, sample
// counts, row growth).  A wrong cover exits non-zero with no result.  A
// broken invariant (a failed op on cover-tcp or cluster-rw, a resent
// message on cover-tcp, a retried shard fetch on cluster-rw) prints
// "correct":false, names the invariant on stderr and exits 1.

#include <net/if.h>
#include <sched.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"
#include "procs.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void Usage() {
  std::cerr << "usage: perfbench --workload <cover-tcp|cover-tcp-loss|"
               "cluster-rw|cluster-churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--fetch-delay-us <us>] [--workdir <dir>]\n";
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--fetch-delay-us") {
      args.fetch_delay_us = std::strtoll(value.c_str(), nullptr, 10);
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage();
    }
  }
  if (args.workload.empty() || args.seconds < 1) Usage();
  return args;
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metrics BENCHMARK.json names, in its order and units.  Every run
// prints all of one list: the end-to-end list untraced, the per-layer
// list traced.  cluster-churn's event figures (failover, repair,
// rebalance, suspicion, handoff) are not in it: that workload is not
// gated (NOTES.md says why), so they go to its context line.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"query_p50_ms", "ms"}, {"query_tail_ms", "ms"},
    {"query_qps", "1/s"},    {"peak_rss_mb", "MiB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"service.submit_us", "us"},
    {"service.cache_hit_ratio", "ratio"},
    {"service.exec_per_query", "ratio"},
    {"core.cover_ms", "ms"},
    {"core.cover_rows", "rows"},
    {"p2p.protocol_ms", "ms"},
    {"p2p.msgs_per_query", "msgs"},
    {"p2p.bytes_per_query", "bytes"},
    {"p2p.retransmits_per_query", "msgs"},
    {"p2p.dups_suppressed_per_query", "msgs"},
    {"p2p.first_send_ratio", "ratio"},
    {"p2p.session_timeouts", "count"},
    {"wire.encode_ns_per_row", "ns"},
    {"wire.decode_ns_per_row", "ns"},
    {"wire.bytes_per_row", "bytes"},
    {"storage.slice_ms", "ms"},
    {"storage.assemble_ms", "ms"},
    {"cluster.fetch_ms", "ms"},
    {"cluster.fetch_hit_ratio", "ratio"},
    {"cluster.attempts_per_shard_fetch", "ratio"},
    {"cluster.write_apply_ms", "ms"},
    {"cluster.write_retries_per_write", "ratio"},
    {"cluster.write_lagging", "replicas"},
    {"trace.overhead_pct", "%"},
};

// Prints the context line, then the result line holding every metric
// of the manifest list for this mode.  A metric the workload measured
// but the manifest does not gate (cluster-rw's write latencies) goes to
// the context line.  A manifest metric the workload did not measure is a
// benchmark bug, and fails the run, unless its layer is idle there.
void PrintResult(Outcome out, bool trace) {
  std::map<std::string, Metric>& measured =
      trace ? out.per_layer : out.end_to_end;
  std::string metrics;
  auto print = [&](const MetricSpec& spec) {
    auto it = measured.find(spec.name);
    Metric metric{0, spec.unit};
    if (it != measured.end()) {
      metric = it->second;
      measured.erase(it);
    } else {
      const std::string name = spec.name;
      const std::string layer = name.substr(0, name.find('.'));
      if (!trace || !out.idle_layers.count(layer)) {
        Fail("workload did not measure " + name);
      }
    }
    if (metric.unit != spec.unit) {
      Fail(std::string(spec.name) + " measured in " + metric.unit +
           ", manifest says " + spec.unit);
    }
    if (!metrics.empty()) metrics += ",";
    metrics += JsonString(spec.name) + ":{\"value\":" +
               JsonNumber(metric.value) + ",\"unit\":" +
               JsonString(metric.unit) + "}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) print(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) print(spec);
  }
  for (const auto& [key, metric] : measured) {
    out.context[key] = JsonNumber(metric.value) + " " + metric.unit;
  }
  std::string context = "{\"build\":" + JsonString(PERFBENCH_BUILD_TYPE) +
                        ",\"clock\":\"steady_clock\"";
  for (const auto& [key, value] : out.context) {
    context += "," + JsonString(key) + ":" + JsonString(value);
  }
  std::cout << "context " << context << "}\n";
  std::cout << "{\"correct\":" << (out.violations.empty() ? "true" : "false")
            << ",\"attempted\":" << out.attempted
            << ",\"failed\":" << out.failed << ",\"metrics\":{" << metrics
            << "}}" << std::endl;
}

// Moves this process (and the storage nodes it spawns) into a private
// network namespace with its own loopback.  Every tcp cover session opens
// fresh connections, so a 10 s run leaves ~15k sockets in TIME_WAIT; in
// the shared namespace those pile up across back-to-back runs until the
// ephemeral port range is nearly full and connect() slows down, which
// made cover-tcp throughput fall run after run.  Without CAP_SYS_ADMIN
// the namespace is made inside a new user namespace instead.  A run that
// can make neither fails: its figures would drift from run to run.
void IsolateNetwork() {
  if (unshare(CLONE_NEWNET) != 0) {
    const std::string uid = std::to_string(getuid());
    const std::string gid = std::to_string(getgid());
    if (unshare(CLONE_NEWUSER | CLONE_NEWNET) != 0) {
      Fail("cannot make a private network namespace (needs CAP_SYS_ADMIN "
           "or unprivileged user namespaces)");
    }
    auto write = [](const char* path, const std::string& text) {
      std::ofstream out(path);
      out << text;
      return static_cast<bool>(out.flush());
    };
    if (!write("/proc/self/setgroups", "deny") ||
        !write("/proc/self/uid_map", uid + " " + uid + " 1\n") ||
        !write("/proc/self/gid_map", gid + " " + gid + " 1\n")) {
      Fail("cannot map ids into the new user namespace");
    }
  }
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  ifreq ifr{};
  std::snprintf(ifr.ifr_name, IFNAMSIZ, "lo");
  const bool up = fd >= 0 && ioctl(fd, SIOCGIFFLAGS, &ifr) == 0 &&
                  (ifr.ifr_flags |= IFF_UP, ioctl(fd, SIOCSIFFLAGS, &ifr) == 0);
  if (fd >= 0) close(fd);
  if (!up) Fail("cannot bring up loopback in the private network namespace");
}

int Main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "storage-node") {
    return StorageNodeMain(argc, argv);
  }
  const Args args = ParseArgs(argc, argv);
  IsolateNetwork();
  std::error_code ec;
  std::filesystem::remove_all(args.workdir, ec);
  std::filesystem::create_directories(args.workdir, ec);
  if (ec) Fail("cannot create workdir " + args.workdir);
  Outcome out;
  if (args.workload == "cover-tcp") {
    out = RunCoverWorkload(args, /*loss=*/false);
  } else if (args.workload == "cover-tcp-loss") {
    out = RunCoverWorkload(args, /*loss=*/true);
  } else if (args.workload == "cluster-rw") {
    out = RunClusterWorkload(args, /*churn=*/false);
  } else if (args.workload == "cluster-churn") {
    out = RunClusterWorkload(args, /*churn=*/true);
  } else {
    Usage();
  }
  out.context["seed"] = std::to_string(args.seed);
  out.context["seconds"] = std::to_string(args.seconds);
  out.context["fetch_delay_us"] = std::to_string(args.fetch_delay_us);
  PrintResult(out, args.trace);
  KillAllChildren();
  for (const std::string& violation : out.violations) {
    std::cerr << "perfbench: " << args.workload << " (seed " << args.seed
              << "): " << violation << "\n";
  }
  return out.violations.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
