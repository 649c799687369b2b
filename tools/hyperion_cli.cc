// hyperion_cli — curator command line for mapping-table files (.hmt, the
// text format of mapping_table.cc).
//
//   hyperion_cli create <file> --name m1 --x "GDB_id:string" --y "MIM_id:string"
//   hyperion_cli show <file>
//   hyperion_cli add <file> <row>          row in table syntax, e.g. "a|b"
//   hyperion_cli ym <file> <x-value>...    print Y_m(x) images
//   hyperion_cli compose <a> <b> [-o out]  cover of a ∘ b (X of a → Y of b)
//   hyperion_cli cover <t1> <t2>... [-o out]
//                                          cover along the whole chain
//   hyperion_cli check <t1> <t2>...        conjunction consistency (+ witness)
//   hyperion_cli infer <target> <t1>...    does the chain imply target?
//   hyperion_cli diff <a> <b>              rows only in a / only in b
//   hyperion_cli co2cc <file> [-o out]     closed-open → closed-closed

#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/node.h"
#include "cluster/shard_ring.h"
#include "cluster/shutdown.h"
#include "core/compose.h"
#include "core/consistency.h"
#include "core/curator.h"
#include "core/infer.h"
#include "core/semantics.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "p2p/network.h"
#include "p2p/peer.h"
#include "service/catalogs.h"
#include "service/query_service.h"
#include "storage/csv.h"
#include "workload/bio_network.h"

namespace hyperion {
namespace {

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot read '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot write '" + path + "'");
  out << content;
  return out.good() ? Status::OK()
                    : Status::IoError("write failed for '" + path + "'");
}

Result<MappingTable> LoadTable(const std::string& path) {
  HYP_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  // Honors an optional "semantics:" header (CO/OC tables normalize to CC).
  HYP_ASSIGN_OR_RETURN(MappingTable table, ParseAndNormalize(text));
  if (table.name().empty()) table.set_name(path);
  return table;
}

Status EmitTable(const MappingTable& table,
                 const std::optional<std::string>& out_path) {
  if (out_path) {
    HYP_RETURN_IF_ERROR(WriteFile(*out_path, table.Serialize()));
    std::cout << "wrote " << table.size() << " rows to " << *out_path
              << "\n";
  } else {
    std::cout << table.Serialize();
  }
  return Status::OK();
}

// Strips "-o <path>" out of args; returns the path if present.
std::optional<std::string> TakeOutputFlag(std::vector<std::string>* args) {
  for (size_t i = 0; i + 1 < args->size(); ++i) {
    if ((*args)[i] == "-o") {
      std::string path = (*args)[i + 1];
      args->erase(args->begin() + static_cast<ptrdiff_t>(i),
                  args->begin() + static_cast<ptrdiff_t>(i) + 2);
      return path;
    }
  }
  return std::nullopt;
}

std::optional<std::string> TakeValueFlag(std::vector<std::string>* args,
                                         const std::string& flag) {
  const std::string with_equals = flag + "=";
  for (size_t i = 0; i < args->size(); ++i) {
    if ((*args)[i] == flag && i + 1 < args->size()) {
      std::string v = (*args)[i + 1];
      args->erase(args->begin() + static_cast<ptrdiff_t>(i),
                  args->begin() + static_cast<ptrdiff_t>(i) + 2);
      return v;
    }
    if ((*args)[i].rfind(with_equals, 0) == 0) {  // --flag=value form
      std::string v = (*args)[i].substr(with_equals.size());
      args->erase(args->begin() + static_cast<ptrdiff_t>(i));
      return v;
    }
  }
  return std::nullopt;
}

// Composes t1 ∘ t2 ∘ ... left to right.
Result<MappingTable> ChainCover(const std::vector<std::string>& paths) {
  if (paths.size() < 2) {
    return Status::InvalidArgument("need at least two tables to compose");
  }
  HYP_ASSIGN_OR_RETURN(MappingTable acc, LoadTable(paths[0]));
  for (size_t i = 1; i < paths.size(); ++i) {
    HYP_ASSIGN_OR_RETURN(MappingTable next, LoadTable(paths[i]));
    HYP_ASSIGN_OR_RETURN(acc, ComposeConstraints(MappingConstraint(acc),
                                                 MappingConstraint(next)));
  }
  return acc;
}

int CmdCreate(std::vector<std::string> args) {
  auto name = TakeValueFlag(&args, "--name");
  auto x = TakeValueFlag(&args, "--x");
  auto y = TakeValueFlag(&args, "--y");
  if (args.size() != 1 || !x || !y) {
    return Fail("usage: create <file> --x \"A:string,...\" --y \"B:string\" "
                "[--name m1]");
  }
  std::string text;
  if (name) text += "name: " + *name + "\n";
  text += "x: " + *x + "\ny: " + *y + "\n";
  auto parsed = MappingTable::Parse(text);  // validate before writing
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  if (Status s = WriteFile(args[0], text); !s.ok()) {
    return Fail(s.ToString());
  }
  std::cout << "created " << args[0] << "\n";
  return 0;
}

int CmdShow(const std::vector<std::string>& args) {
  if (args.size() != 1) return Fail("usage: show <file>");
  auto table = LoadTable(args[0]);
  if (!table.ok()) return Fail(table.status().ToString());
  std::cout << table.value().ToString();
  MappingTable::Stats stats = table.value().Describe();
  std::cout << "rows: " << stats.rows << " (" << stats.ground_rows
            << " ground, " << stats.variable_rows << " with variables)\n";
  if (stats.distinct_ground_x > 0) {
    std::cout << "distinct X values: " << stats.distinct_ground_x
              << "; fanout avg " << stats.avg_fanout << ", max "
              << stats.max_fanout << "\n";
  }
  if (stats.total_exclusion_values > 0) {
    std::cout << "exclusion-set values: " << stats.total_exclusion_values
              << "\n";
  }
  std::cout << "shape: "
            << MappingTable::MappingShapeToString(table.value().Classify())
            << "\n";
  return 0;
}

int CmdAdd(const std::vector<std::string>& args) {
  if (args.size() != 2) return Fail("usage: add <file> \"cell|cell|...\"");
  auto text = ReadFile(args[0]);
  if (!text.ok()) return Fail(text.status().ToString());
  std::string appended = text.value();
  if (!appended.empty() && appended.back() != '\n') appended += "\n";
  appended += args[1] + "\n";
  auto parsed = MappingTable::Parse(appended);  // validates the new row
  if (!parsed.ok()) return Fail(parsed.status().ToString());
  if (Status s = WriteFile(args[0], appended); !s.ok()) {
    return Fail(s.ToString());
  }
  std::cout << "table now has " << parsed.value().size() << " rows\n";
  return 0;
}

int CmdYm(const std::vector<std::string>& args) {
  if (args.size() < 2) return Fail("usage: ym <file> <x-value>...");
  auto table = LoadTable(args[0]);
  if (!table.ok()) return Fail(table.status().ToString());
  if (table.value().x_arity() != 1) {
    return Fail("ym currently supports single-attribute X sides");
  }
  ValueType type =
      table.value().x_schema().attr(0).domain()->value_type();
  for (size_t i = 1; i < args.size(); ++i) {
    Value x = type == ValueType::kInt
                  ? Value(std::strtoll(args[i].c_str(), nullptr, 10))
                  : Value(args[i]);
    auto image = table.value().YmGround({x});
    std::cout << args[i] << " -> ";
    if (!image.ok()) {
      std::cout << "(infinite image: a variable row applies)\n";
      continue;
    }
    if (image.value().empty()) {
      std::cout << "(no image: value cannot be exchanged)\n";
      continue;
    }
    for (size_t j = 0; j < image.value().size(); ++j) {
      std::cout << (j ? ", " : "") << TupleToString(image.value()[j]);
    }
    std::cout << "\n";
  }
  return 0;
}

int CmdCompose(std::vector<std::string> args) {
  auto out = TakeOutputFlag(&args);
  if (args.size() < 2) {
    return Fail("usage: compose|cover <a> <b> [<c> ...] [-o out]");
  }
  auto cover = ChainCover(args);
  if (!cover.ok()) return Fail(cover.status().ToString());
  if (Status s = EmitTable(cover.value(), out); !s.ok()) {
    return Fail(s.ToString());
  }
  return 0;
}

int CmdCheck(const std::vector<std::string>& args) {
  if (args.empty()) return Fail("usage: check <t1> [<t2> ...]");
  std::vector<MappingConstraint> constraints;
  for (const std::string& path : args) {
    auto table = LoadTable(path);
    if (!table.ok()) return Fail(table.status().ToString());
    constraints.emplace_back(std::move(table).value());
  }
  std::vector<McfPtr> leaves;
  for (const MappingConstraint& c : constraints) {
    leaves.push_back(Mcf::Leaf(c));
  }
  auto formula = Mcf::AndAll(leaves);
  if (!formula.ok()) return Fail(formula.status().ToString());
  auto witness = FindSatisfyingTuple(*formula.value());
  if (!witness.ok()) return Fail(witness.status().ToString());
  if (!witness.value()) {
    std::cout << "INCONSISTENT: no exchanged tuple can satisfy all "
              << constraints.size() << " tables\n";
    return 2;
  }
  std::cout << "consistent; witness over "
            << FormulaSchema(*formula.value()).ToString() << ": "
            << TupleToString(*witness.value()) << "\n";
  return 0;
}

int CmdInfer(const std::vector<std::string>& args) {
  if (args.size() < 3) {
    return Fail("usage: infer <target> <t1> <t2> [...]");
  }
  auto target = LoadTable(args[0]);
  if (!target.ok()) return Fail(target.status().ToString());
  auto cover = ChainCover({args.begin() + 1, args.end()});
  if (!cover.ok()) return Fail(cover.status().ToString());
  auto contained = TableContained(cover.value(), target.value());
  if (!contained.ok()) return Fail(contained.status().ToString());
  if (contained.value()) {
    std::cout << "IMPLIED: the chain's cover (" << cover.value().size()
              << " rows) is contained in the target\n";
    return 0;
  }
  auto fresh = RowsNotContained(cover.value(), target.value());
  if (!fresh.ok()) return Fail(fresh.status().ToString());
  std::cout << "NOT implied: " << fresh.value().size()
            << " derivable mappings are missing from the target, e.g.\n";
  for (size_t i = 0; i < std::min<size_t>(fresh.value().size(), 5); ++i) {
    std::cout << "  " << fresh.value()[i].ToString() << "\n";
  }
  return 2;
}

int CmdDiff(const std::vector<std::string>& args) {
  if (args.size() != 2) return Fail("usage: diff <a> <b>");
  auto a = LoadTable(args[0]);
  if (!a.ok()) return Fail(a.status().ToString());
  auto b = LoadTable(args[1]);
  if (!b.ok()) return Fail(b.status().ToString());
  auto diff = DiffTables(a.value(), b.value());
  if (!diff.ok()) return Fail(diff.status().ToString());
  if (diff.value().equivalent()) {
    std::cout << "tables are equivalent\n";
    return 0;
  }
  std::cout << "only in " << args[0] << " (" << diff.value().only_in_a.size()
            << " rows):\n";
  for (const Mapping& row : diff.value().only_in_a) {
    std::cout << "  " << row.ToString() << "\n";
  }
  std::cout << "only in " << args[1] << " (" << diff.value().only_in_b.size()
            << " rows):\n";
  for (const Mapping& row : diff.value().only_in_b) {
    std::cout << "  " << row.ToString() << "\n";
  }
  return 2;
}

int CmdCoToCc(std::vector<std::string> args) {
  auto out = TakeOutputFlag(&args);
  if (args.size() != 1) return Fail("usage: co2cc <file> [-o out]");
  auto table = LoadTable(args[0]);
  if (!table.ok()) return Fail(table.status().ToString());
  auto cc = TranslateToCc(table.value(), WorldSemantics::kClosedOpen);
  if (!cc.ok()) return Fail(cc.status().ToString());
  if (Status s = EmitTable(cc.value(), out); !s.ok()) {
    return Fail(s.ToString());
  }
  return 0;
}

int CmdImport(std::vector<std::string> args) {
  auto name = TakeValueFlag(&args, "--name");
  auto x_arity = TakeValueFlag(&args, "--x-arity");
  if (args.size() != 2) {
    return Fail("usage: import <out.hmt> <in.csv> [--x-arity N] [--name m]");
  }
  auto csv = ReadFile(args[1]);
  if (!csv.ok()) return Fail(csv.status().ToString());
  size_t arity = x_arity ? std::strtoul(x_arity->c_str(), nullptr, 10) : 1;
  auto table = ImportTableCsv(csv.value(), arity,
                              name.value_or(args[0]));
  if (!table.ok()) return Fail(table.status().ToString());
  if (Status s = WriteFile(args[0], table.value().Serialize()); !s.ok()) {
    return Fail(s.ToString());
  }
  std::cout << "imported " << table.value().size() << " rows into "
            << args[0] << "\n";
  return 0;
}

int CmdExport(std::vector<std::string> args) {
  auto out = TakeOutputFlag(&args);
  if (args.size() != 1) return Fail("usage: export <file.hmt> [-o out.csv]");
  auto table = LoadTable(args[0]);
  if (!table.ok()) return Fail(table.status().ToString());
  auto csv = ExportTableCsv(table.value());
  if (!csv.ok()) return Fail(csv.status().ToString());
  if (out) {
    if (Status s = WriteFile(*out, csv.value()); !s.ok()) {
      return Fail(s.ToString());
    }
    std::cout << "wrote " << *out << "\n";
  } else {
    std::cout << csv.value();
  }
  return 0;
}

// Runs the built-in bio-workload cover session on a simulated network
// with the requested faults injected, so the reliability counters
// (proto.retransmits, proto.session_timeouts, net.drops_injected,
// net.duplicates_suppressed, ...) land in the stats snapshot.
int RunFaultSession(double drop_rate, double dup_rate, uint64_t seed) {
  BioConfig config;
  config.num_entities = 300;
  auto workload = BioWorkload::Generate(config);
  if (!workload.ok()) return Fail(workload.status().ToString());
  auto peers = workload.value().BuildPeers();
  if (!peers.ok()) return Fail(peers.status().ToString());
  SimNetwork net;
  for (auto& p : peers.value()) {
    if (Status s = p->Attach(&net); !s.ok()) return Fail(s.ToString());
  }
  FaultPlan plan;
  plan.seed = seed;
  plan.default_link.drop_rate = drop_rate;
  plan.default_link.dup_rate = dup_rate;
  net.SetFaultPlan(plan);
  PeerNode* hugo = nullptr;
  for (auto& p : peers.value()) {
    if (p->id() == "Hugo") hugo = p.get();
  }
  if (hugo == nullptr) return Fail("bio workload has no Hugo peer");
  auto session = hugo->StartCoverSession(
      {"Hugo", "Locus", "GDB", "SwissProt", "MIM"},
      {Attribute::String("Hugo_id")}, {Attribute::String("MIM_id")});
  if (!session.ok()) return Fail(session.status().ToString());
  if (auto run = net.Run(); !run.ok()) return Fail(run.status().ToString());
  auto result = hugo->GetResult(session.value());
  if (!result.ok()) return Fail(result.status().ToString());
  std::cerr << "fault session (drop " << drop_rate << ", dup " << dup_rate
            << ", seed " << seed << "): "
            << (result.value()->error.ok() ? "completed"
                                           : result.value()->error.ToString())
            << "; " << net.stats().drops_injected << " drops injected, "
            << net.stats().timers_fired << " timers fired\n";
  return 0;
}

int CmdStats(std::vector<std::string> args) {
  bool csv = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--csv") {
      csv = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  auto drop_rate = TakeValueFlag(&args, "--drop-rate");
  auto dup_rate = TakeValueFlag(&args, "--dup-rate");
  auto fault_seed = TakeValueFlag(&args, "--fault-seed");
  if (drop_rate || dup_rate || fault_seed) {
    int rc = RunFaultSession(
        drop_rate ? std::strtod(drop_rate->c_str(), nullptr) : 0.0,
        dup_rate ? std::strtod(dup_rate->c_str(), nullptr) : 0.0,
        fault_seed ? std::strtoull(fault_seed->c_str(), nullptr, 10) : 1);
    if (rc != 0) return rc;
  }
  // Loading tables exercises the parse/describe paths, so their counters
  // land in the snapshot printed below.
  for (const std::string& path : args) {
    auto table = LoadTable(path);
    if (!table.ok()) return Fail(table.status().ToString());
    MappingTable::Stats stats = table.value().Describe();
    obs::MetricRegistry& reg = obs::MetricRegistry::Default();
    obs::LabelSet labels{{"table", table.value().name()}};
    reg.GetGauge("cli.table_rows", labels)
        ->Set(static_cast<int64_t>(stats.rows));
    reg.GetGauge("cli.table_ground_rows", labels)
        ->Set(static_cast<int64_t>(stats.ground_rows));
    reg.GetGauge("cli.table_variable_rows", labels)
        ->Set(static_cast<int64_t>(stats.variable_rows));
  }
  obs::MetricsSnapshot snapshot = obs::MetricRegistry::Default().Snapshot();
  if (csv) {
    std::cout << obs::MetricsToCsv(snapshot);
  } else {
    std::cout << obs::MetricsToJson(snapshot, 2) << "\n";
  }
  return 0;
}

std::vector<std::string> SplitCommas(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : csv) {
    if (c == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Parses "v1,v2,..." against `table`'s schemas into a one-row delta
// table and union-merges it in — the one curator-write primitive the
// cluster REPL's `write` verb and `query --write` share, so a cluster
// write sequence and its single-process replay produce byte-identical
// tables.
Result<MappingTable> CuratorWrite(const MappingTable& table,
                                  const std::string& row_csv) {
  std::vector<std::string> cells = SplitCommas(row_csv);
  const size_t x_arity = table.x_arity();
  const size_t y_arity = table.y_schema().arity();
  if (cells.size() != x_arity + y_arity) {
    return Status::InvalidArgument(
        "write row has " + std::to_string(cells.size()) + " values; table '" +
        table.name() + "' needs " + std::to_string(x_arity + y_arity));
  }
  auto value_of = [](const Schema& schema, size_t i, const std::string& word) {
    return schema.attr(i).domain()->value_type() == ValueType::kInt
               ? Value(std::strtoll(word.c_str(), nullptr, 10))
               : Value(word);
  };
  Tuple x, y;
  for (size_t i = 0; i < x_arity; ++i) {
    x.push_back(value_of(table.x_schema(), i, cells[i]));
  }
  for (size_t i = 0; i < y_arity; ++i) {
    y.push_back(value_of(table.y_schema(), i, cells[x_arity + i]));
  }
  HYP_ASSIGN_OR_RETURN(
      MappingTable delta,
      MappingTable::Create(table.x_schema(), table.y_schema(), table.name()));
  HYP_RETURN_IF_ERROR(delta.AddPair(x, y));
  HYP_ASSIGN_OR_RETURN(MappingTable merged,
                       MergeUnion(table, delta, table.name()));
  return merged;
}

// Builds the QueryRequest for a database path like "Hugo,SwissProt,MIM":
// translate the initiator's ids into the terminal database's ids.
Result<QueryRequest> BioRequest(const std::vector<std::string>& dbs) {
  if (dbs.size() < 2) {
    return Status::InvalidArgument("path needs at least two databases");
  }
  QueryRequest request;
  request.path_peers = dbs;
  request.x_attrs = {Attribute::String(BioWorkload::AttrNameOf(dbs.front()))};
  request.y_attrs = {Attribute::String(BioWorkload::AttrNameOf(dbs.back()))};
  return request;
}

struct ServiceFlags {
  BioConfig config;
  QueryServiceOptions options;
};

// Parses the flags shared by `serve` and `query` out of args.
Result<ServiceFlags> TakeServiceFlags(std::vector<std::string>* args) {
  ServiceFlags flags;
  flags.config.num_entities = 1000;
  if (auto v = TakeValueFlag(args, "--entities")) {
    flags.config.num_entities = std::strtoul(v->c_str(), nullptr, 10);
  }
  if (auto v = TakeValueFlag(args, "--workers")) {
    flags.options.num_workers = std::strtoul(v->c_str(), nullptr, 10);
  }
  if (auto v = TakeValueFlag(args, "--queue")) {
    flags.options.queue_capacity = std::strtoul(v->c_str(), nullptr, 10);
  }
  if (auto v = TakeValueFlag(args, "--drop-rate")) {
    flags.options.fault_plan.default_link.drop_rate =
        std::strtod(v->c_str(), nullptr);
  }
  if (auto v = TakeValueFlag(args, "--dup-rate")) {
    flags.options.fault_plan.default_link.dup_rate =
        std::strtod(v->c_str(), nullptr);
  }
  if (auto v = TakeValueFlag(args, "--fault-seed")) {
    flags.options.fault_plan.seed = std::strtoull(v->c_str(), nullptr, 10);
  }
  if (auto v = TakeValueFlag(args, "--transport")) {
    HYP_ASSIGN_OR_RETURN(flags.options.transport, ParseServiceTransport(*v));
  }
  for (auto it = args->begin(); it != args->end();) {
    if (*it == "--no-cache") {
      flags.options.cache_entries = 0;
      it = args->erase(it);
    } else {
      ++it;
    }
  }
  return flags;
}

// serve — interactive REPL over the bio-catalog service.  One line per
// request; `help` lists the verbs.  Exists so a human can poke the same
// object the soak test hammers.
int CmdServe(std::vector<std::string> args) {
  auto flags = TakeServiceFlags(&args);
  if (!flags.ok()) return Fail(flags.status().ToString());
  if (!args.empty()) return Fail("serve takes only flags; see usage");
  auto catalog = BuildBioCatalog(flags.value().config);
  if (!catalog.ok()) return Fail(catalog.status().ToString());
  QueryService service(catalog.value().store.get(), catalog.value().peers,
                       flags.value().options);
  // SIGINT/SIGTERM interrupt the blocking getline (no SA_RESTART), so a
  // signal drains through ~QueryService instead of killing mid-session.
  cluster::InstallShutdownSignalHandlers();
  std::cerr << "serving the bio network ("
            << flags.value().config.num_entities << " entities, "
            << flags.value().options.num_workers << " workers, "
            << ServiceTransportName(flags.value().options.transport)
            << " transport); try: query Hugo,SwissProt,MIM\n";
  std::string line;
  while (!cluster::ShutdownRequested() && std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb.empty()) continue;
    if (verb == "quit" || verb == "exit") break;
    if (verb == "help") {
      std::cout << "  query <Db1,Db2,...>   run a cover along the path\n"
                   "  paths                 list the Figure 10 paths\n"
                   "  stats                 service + cache counters\n"
                   "  quit\n";
      continue;
    }
    if (verb == "paths") {
      for (const auto& dbs : BioWorkload::HugoMimPaths()) {
        for (size_t i = 0; i < dbs.size(); ++i) {
          std::cout << (i ? "," : "  ") << dbs[i];
        }
        std::cout << "\n";
      }
      continue;
    }
    if (verb == "stats") {
      QueryService::Stats s = service.stats();
      CoverCache::Stats c = service.cache_stats();
      std::cout << "submitted " << s.submitted << ", executed " << s.executed
                << ", cache hits " << s.cache_hits << ", coalesced "
                << s.coalesced << ", rejects " << s.admission_rejects
                << ", failed " << s.failed << "; cache invalidations "
                << c.invalidations << ", evictions " << c.evictions << "\n";
      continue;
    }
    if (verb == "query") {
      std::string path_csv;
      in >> path_csv;
      auto request = BioRequest(SplitCommas(path_csv));
      if (!request.ok()) {
        std::cout << "error: " << request.status() << "\n";
        continue;
      }
      QueryResponsePtr response = service.Execute(std::move(request).value());
      if (!response->status.ok()) {
        std::cout << "error: " << response->status << "\n";
        continue;
      }
      std::cout << response->cover->size() << " cover rows in "
                << response->latency_us << " us"
                << (response->from_cache ? " (cached)" : "") << "\n";
      continue;
    }
    std::cout << "unknown verb '" << verb << "'; try help\n";
  }
  if (cluster::ShutdownRequested()) {
    std::cerr << "shutdown signal received; draining\n";
  }
  return 0;
}

// query — drives one request repeatedly from many client threads; the
// CI soak runs this at high concurrency against the Release build.
int CmdQuery(std::vector<std::string> args) {
  auto flags = TakeServiceFlags(&args);
  if (!flags.ok()) return Fail(flags.status().ToString());
  size_t repeat = 1, threads = 1;
  if (auto v = TakeValueFlag(&args, "--repeat")) {
    repeat = std::strtoul(v->c_str(), nullptr, 10);
  }
  if (auto v = TakeValueFlag(&args, "--threads")) {
    threads = std::strtoul(v->c_str(), nullptr, 10);
  }
  std::vector<std::string> dbs = {"Hugo", "SwissProt", "MIM"};
  if (auto v = TakeValueFlag(&args, "--path")) dbs = SplitCommas(*v);
  auto dump_path = TakeValueFlag(&args, "--dump");
  std::vector<std::string> writes;  // repeatable --write "table:v1,v2,..."
  while (auto v = TakeValueFlag(&args, "--write")) writes.push_back(*v);
  if (!args.empty()) return Fail("query takes only flags; see usage");
  if (repeat == 0 || threads == 0) {
    return Fail("--repeat and --threads must be positive");
  }
  auto catalog = BuildBioCatalog(flags.value().config);
  if (!catalog.ok()) return Fail(catalog.status().ToString());
  // Replay curator writes into the local store, in order — the
  // single-process reference for the cluster write-path drill: the same
  // write sequence applied through ClusterTableSink must leave the
  // cluster serving byte-identical tables (and covers) to these.
  for (const std::string& spec : writes) {
    size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) {
      return Fail("--write needs <table>:<v1,v2,...>");
    }
    std::string table_name = spec.substr(0, colon);
    auto current = catalog.value().store->Get(table_name);
    if (!current.ok()) return Fail(current.status().ToString());
    auto merged = CuratorWrite(*current.value(), spec.substr(colon + 1));
    if (!merged.ok()) return Fail(merged.status().ToString());
    if (Status s =
            catalog.value().store->PutOrReplace(std::move(merged).value());
        !s.ok()) {
      return Fail(s.ToString());
    }
  }
  QueryService service(catalog.value().store.get(), catalog.value().peers,
                       flags.value().options);
  auto request = BioRequest(dbs);
  if (!request.ok()) return Fail(request.status().ToString());

  std::atomic<uint64_t> ok{0}, failed{0};
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (size_t t = 0; t < threads; ++t) {
    clients.emplace_back([&] {
      for (size_t i = 0; i < repeat; ++i) {
        QueryRequest r = request.value();
        QueryResponsePtr response = service.Execute(std::move(r));
        (response->status.ok() ? ok : failed)
            .fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  double wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  QueryService::Stats s = service.stats();
  std::cout << ok.load() << " ok, " << failed.load() << " failed in "
            << wall_s << " s ("
            << (wall_s > 0 ? static_cast<double>(repeat * threads) / wall_s
                           : 0.0)
            << " qps); " << s.executed << " sessions executed, "
            << s.cache_hits << " cache hits, " << s.coalesced
            << " coalesced, " << s.admission_rejects << " rejects\n";
  // Loud faults are expected under injected faults or tiny queues, but a
  // fault-free run that fails anything should fail the soak.
  bool faults_injected =
      flags.value().options.fault_plan.default_link.drop_rate > 0 ||
      flags.value().options.fault_plan.default_link.dup_rate > 0;
  if (failed.load() > 0 && !faults_injected) {
    return Fail("fault-free run produced failed responses");
  }
  if (dump_path) {
    // One clean execution whose cover goes to a file — the byte-level
    // reference the cluster conformance check diffs against.
    QueryRequest r = request.value();
    QueryResponsePtr response = service.Execute(std::move(r));
    if (!response->status.ok()) return Fail(response->status.ToString());
    Status ws = WriteFile(*dump_path, response->cover->Serialize());
    if (!ws.ok()) return Fail(ws.ToString());
    std::cerr << "cover (" << response->cover->size() << " rows) written to "
              << *dump_path << "\n";
  }
  return 0;
}

// cluster plan|check — placement inspection for a cluster config.  Every
// process computes placement independently from the config file plus the
// shard ring, so `plan` is how an operator sees (and a script asserts)
// what the cluster will agree on, without starting any node.
int CmdCluster(std::vector<std::string> args) {
  if (args.empty()) return Fail("cluster needs a subcommand: plan or check");
  std::string sub = args.front();
  args.erase(args.begin());
  auto config_path = TakeValueFlag(&args, "--config");
  if (!config_path) return Fail("cluster " + sub + " requires --config");
  if (!args.empty()) return Fail("cluster takes only flags; see usage");
  auto config = cluster::ClusterConfig::FromFile(*config_path);
  if (!config.ok()) return Fail(config.status().ToString());
  auto ring = cluster::ShardRing::Build(config.value().StorageNodeIds(),
                                        config.value().shard_count,
                                        config.value().vnodes,
                                        config.value().replication);
  if (!ring.ok()) return Fail(ring.status().ToString());
  if (sub == "check") {
    // FromFile already validated; reaching here means the config and the
    // ring both build.
    std::cout << "ok: " << config.value().nodes.size() << " nodes, "
              << config.value().shard_count << " shards, replication "
              << config.value().replication << ", "
              << ring.value().storage_nodes().size() << " storage nodes\n";
    return 0;
  }
  if (sub != "plan") return Fail("unknown cluster subcommand '" + sub + "'");
  std::cout << "shards " << config.value().shard_count << ", vnodes "
            << config.value().vnodes << ", replication "
            << config.value().replication << "\n";
  // Full replica set per shard, primary first — scripts take the
  // primary from column 4, replicas from the columns after it.
  for (uint64_t s = 0; s < config.value().shard_count; ++s) {
    std::cout << "shard " << s << " ->";
    for (const std::string& owner : ring.value().OwnersForShard(s)) {
      std::cout << " " << owner;
    }
    std::cout << "\n";
  }
  for (const cluster::NodeSpec& node : config.value().nodes) {
    std::cout << node.id << " (" << cluster::RoleName(node.role) << ")";
    if (node.role == cluster::NodeRole::kStorage) {
      std::cout << " primary of";
      for (uint64_t s : ring.value().PrimaryShardsOf(node.id)) {
        std::cout << " " << s;
      }
      std::cout << "; replicates";
      for (uint64_t s : ring.value().ShardsOwnedBy(node.id)) {
        std::cout << " " << s;
      }
    }
    std::cout << "\n";
  }
  return 0;
}

// node — one process of a cluster (tools/run_cluster.sh starts three).
// Every node deterministically regenerates the bio catalog; storage
// nodes serve their shard slice of it, the coordinator keeps only the
// peer specs and reads tables through the cluster source, so its covers
// must be byte-identical to a single-process run over the same catalog.
int CmdNode(std::vector<std::string> args) {
  auto config_path = TakeValueFlag(&args, "--config");
  auto id = TakeValueFlag(&args, "--id");
  auto entities = TakeValueFlag(&args, "--entities");
  auto workers = TakeValueFlag(&args, "--workers");
  auto port_file = TakeValueFlag(&args, "--port-file");
  auto log_dir = TakeValueFlag(&args, "--log-dir");
  bool print_port = false;
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--print-port") {
      print_port = true;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  if (!config_path || !id) {
    return Fail("node requires --config <file> and --id <node>");
  }
  if (!args.empty()) return Fail("node takes only flags; see usage");

  auto config = cluster::ClusterConfig::FromFile(*config_path);
  if (!config.ok()) return Fail(config.status().ToString());
  BioConfig bio;
  bio.num_entities =
      entities ? std::strtoul(entities->c_str(), nullptr, 10) : 1000;
  auto catalog = BuildBioCatalog(bio);
  if (!catalog.ok()) return Fail(catalog.status().ToString());
  auto node = cluster::ClusterNode::Create(
      std::move(config).value(), *id, std::move(*catalog.value().store));
  if (!node.ok()) return Fail(node.status().ToString());
  if (log_dir) node.value()->SetWriteLogDir(*log_dir);

  cluster::InstallShutdownSignalHandlers();
  if (Status s = node.value()->Bind(); !s.ok()) return Fail(s.ToString());
  if (port_file) {
    if (Status s = node.value()->WritePortFile(*port_file); !s.ok()) {
      return Fail(s.ToString());
    }
  }
  auto port = node.value()->ListenPort();
  if (!port.ok()) return Fail(port.status().ToString());
  if (print_port) std::cout << port.value() << std::endl;
  if (Status s = node.value()->Start(); !s.ok()) return Fail(s.ToString());

  const cluster::NodeSpec& self = node.value()->self();
  std::cerr << "node '" << self.id << "' ("
            << cluster::RoleName(self.role) << ") listening on "
            << self.host << ":" << port.value();
  if (self.role == cluster::NodeRole::kStorage) {
    std::cerr << "; owns shards";
    for (uint64_t s : node.value()->owned_shards()) std::cerr << " " << s;
  }
  std::cerr << "\n";

  if (self.role == cluster::NodeRole::kStorage) {
    // Storage nodes are passive: the event-loop thread answers fetches
    // and heartbeats; this thread just waits for the shutdown signal.
    while (!cluster::ShutdownRequested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::cerr << "node '" << self.id << "' shutting down\n";
    node.value()->Stop();
    return 0;
  }

  // Coordinator: a QueryService whose tables come through the cluster
  // source — same REPL shape as `serve`, plus cluster verbs.
  QueryServiceOptions options;
  if (workers) {
    options.num_workers = std::strtoul(workers->c_str(), nullptr, 10);
  }
  QueryService service(node.value()->table_source(), catalog.value().peers,
                       options);
  std::string line;
  while (!cluster::ShutdownRequested() && std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb.empty()) continue;
    if (verb == "quit" || verb == "exit") break;
    if (verb == "help") {
      std::cout << "  query <Db1,Db2,...>      run a cover along the path\n"
                   "  dump <out> <Db1,...>     run and write the cover file\n"
                   "  write <table> <v1,v2,..> replicate a curator write\n"
                   "  versions                 per-node shard write versions\n"
                   "  join <id> <host:port>    add a storage node (rebalance)\n"
                   "  decommission <id>        retire a storage node\n"
                   "  epoch                    committed/pending ring epoch\n"
                   "  handoffs                 rows each node installed per gained shard\n"
                   "  members                  membership states\n"
                   "  waitalive [timeout_ms]   block until all peers alive\n"
                   "  shards                   per-shard fetch accounting\n"
                   "  counters [prefix]        metric counters (optional prefix)\n"
                   "  stats                    service counters\n"
                   "  evict                    drop the fetched-table cache\n"
                   "  quit\n";
      continue;
    }
    if (verb == "write") {
      std::string table_name, row_csv;
      in >> table_name >> row_csv;
      if (table_name.empty() || row_csv.empty()) {
        std::cout << "error: write needs <table> <v1,v2,...>\n";
        continue;
      }
      auto fetched = node.value()->table_source()->Fetch(table_name);
      if (!fetched.ok()) {
        std::cout << "error: " << fetched.status() << "\n";
        continue;
      }
      auto merged = CuratorWrite(*fetched.value().table, row_csv);
      if (!merged.ok()) {
        std::cout << "error: " << merged.status() << "\n";
        continue;
      }
      auto report = node.value()->table_sink()->Apply(
          merged.value(), fetched.value().version + 1);
      if (!report.ok()) {
        std::cout << "error: " << report.status() << "\n";
        continue;
      }
      // The committed write made the cached assembly stale; the next
      // fetch re-pulls at the new version, which invalidates covers
      // keyed on the old one.
      node.value()->table_source()->EvictTable(table_name);
      std::cout << "write ok " << table_name << " seq "
                << report.value().sequence << " acks "
                << report.value().acks;
      if (!report.value().lagging.empty()) {
        std::cout << " lagging";
        for (const std::string& replica : report.value().lagging) {
          std::cout << " " << replica;
        }
      }
      std::cout << "\n";
      continue;
    }
    if (verb == "join" || verb == "decommission") {
      std::string target_id, target_addr;
      in >> target_id;
      if (verb == "join") in >> target_addr;
      if (target_id.empty() || (verb == "join" && target_addr.empty())) {
        std::cout << "error: " << verb << " needs <id>"
                  << (verb == "join" ? " <host:port>" : "") << "\n";
        continue;
      }
      auto epoch = verb == "join"
                       ? node.value()->StartJoin(target_id, target_addr)
                       : node.value()->StartDecommission(target_id);
      if (!epoch.ok()) {
        std::cout << "error: " << epoch.status() << "\n";
        continue;
      }
      std::cout << verb << " of '" << target_id << "' started: epoch "
                << epoch.value() << " pending\n";
      continue;
    }
    if (verb == "epoch") {
      // `epoch N (stable): n1 n2 ...` once a transition commits — the
      // rebalance drill polls for exactly that line.
      uint64_t pending = node.value()->pending_epoch();
      std::cout << "epoch " << node.value()->ring_epoch()
                << (pending != 0
                        ? " (transition to " + std::to_string(pending) +
                              " in flight)"
                        : " (stable)")
                << ":";
      for (const std::string& sid : node.value()->ring()->storage_nodes()) {
        std::cout << " " << sid;
      }
      std::cout << "\n";
      continue;
    }
    if (verb == "versions") {
      // One line per storage node: how many of its owned shards it has
      // advertised versions for, and the minimum — the drill polls for
      // "min v<seq>" to detect anti-entropy convergence.  Iterates the
      // *live* committed ring, not the boot config, so joined nodes show
      // up and decommissioned ones drop out.
      auto peers = node.value()->PeerShardVersions();
      for (const std::string& sid : node.value()->ring()->storage_nodes()) {
        std::vector<uint64_t> owned = node.value()->ring()->ShardsOwnedBy(sid);
        auto it = peers.find(sid);
        uint64_t min_version = 0;
        size_t reported = 0;
        bool first = true;
        for (uint64_t s : owned) {
          uint64_t v = 0;
          if (it != peers.end()) {
            auto f = it->second.find(s);
            if (f != it->second.end()) {
              v = f->second;
              ++reported;
            }
          }
          if (first || v < min_version) min_version = v;
          first = false;
        }
        std::cout << sid << " shards " << reported << "/" << owned.size()
                  << " min v" << min_version << "\n";
      }
      continue;
    }
    if (verb == "handoffs") {
      // `handoff <node> shard <s> rows <n>` per shard a node gained by a
      // handoff — the rebalance drill polls for a joiner's non-zero rows.
      // Built from the acks themselves, so metrics-off builds print it.
      size_t shown = 0;
      for (const auto& [target, shards] :
           node.value()->HandoffRowsInstalled()) {
        for (const auto& [shard, rows] : shards) {
          std::cout << "handoff " << target << " shard " << shard
                    << " rows " << rows << "\n";
          ++shown;
        }
      }
      std::cout << "end handoffs (" << shown << ")\n";
      continue;
    }
    if (verb == "members") {
      for (const cluster::MemberInfo& m :
           node.value()->membership().Snapshot()) {
        std::cout << m.node << " " << cluster::MemberStateName(m.state)
                  << " (" << m.beats << " beats)\n";
      }
      continue;
    }
    if (verb == "waitalive") {
      int64_t timeout_ms = 10'000;
      in >> timeout_ms;
      bool alive = node.value()->WaitAllAlive(timeout_ms * 1000);
      std::cout << (alive ? "all alive\n" : "timeout: not all alive\n");
      continue;
    }
    if (verb == "shards") {
      auto stats = node.value()->table_source()->ShardStats();
      if (stats.empty()) std::cout << "no shard fetches yet\n";
      for (const auto& st : stats) {
        std::cout << st.table << " shard " << st.shard << " @ " << st.owner
                  << ": " << st.rows << " rows\n";
      }
      continue;
    }
    if (verb == "stats") {
      QueryService::Stats s = service.stats();
      std::cout << "submitted " << s.submitted << ", executed " << s.executed
                << ", cache hits " << s.cache_hits << ", failed " << s.failed
                << "\n";
      continue;
    }
    if (verb == "evict") {
      node.value()->table_source()->Evict();
      std::cout << "table cache dropped\n";
      continue;
    }
    if (verb == "counters") {
      // `counters cluster.rebalance`: the registry's counters by prefix
      // (all zero in a -DHYPERION_METRICS=OFF build).
      std::string prefix;
      in >> prefix;
      obs::MetricsSnapshot snap = obs::MetricRegistry::Default().Snapshot();
      size_t shown = 0;
      for (const obs::CounterSnapshot& c : snap.counters) {
        if (!prefix.empty() && c.name.rfind(prefix, 0) != 0) continue;
        std::cout << c.name << " " << c.value << "\n";
        ++shown;
      }
      std::cout << "end counters (" << shown << ")\n";
      continue;
    }
    if (verb == "query" || verb == "dump") {
      std::string out_path;
      if (verb == "dump") {
        in >> out_path;
        if (out_path.empty()) {
          std::cout << "error: dump needs <out> <Db1,Db2,...>\n";
          continue;
        }
      }
      std::string path_csv;
      in >> path_csv;
      auto request = BioRequest(SplitCommas(path_csv));
      if (!request.ok()) {
        std::cout << "error: " << request.status() << "\n";
        continue;
      }
      QueryResponsePtr response = service.Execute(std::move(request).value());
      if (!response->status.ok()) {
        std::cout << "error: " << response->status << "\n";
        continue;
      }
      if (verb == "dump") {
        Status ws = WriteFile(out_path, response->cover->Serialize());
        if (!ws.ok()) {
          std::cout << "error: " << ws << "\n";
          continue;
        }
        std::cout << response->cover->size() << " cover rows written to "
                  << out_path << "\n";
      } else {
        std::cout << response->cover->size() << " cover rows in "
                  << response->latency_us << " us"
                  << (response->from_cache ? " (cached)" : "") << "\n";
      }
      continue;
    }
    std::cout << "unknown verb '" << verb << "'; try help\n";
  }
  std::cerr << "node '" << self.id << "' shutting down\n";
  node.value()->Stop();
  return 0;
}

int Usage() {
  std::cerr
      << "hyperion_cli — mapping-table curation (SIGMOD'03 reproduction)\n"
         "commands:\n"
         "  create <file> --x \"A:string\" --y \"B:string\" [--name m]\n"
         "  show <file>\n"
         "  add <file> \"cell|cell\"\n"
         "  ym <file> <x-value>...\n"
         "  compose|cover <a> <b> [...] [-o out]\n"
         "  check <t1> [...]\n"
         "  infer <target> <t1> <t2> [...]\n"
         "  diff <a> <b>\n"
         "  co2cc <file> [-o out]\n"
         "  import <out.hmt> <in.csv> [--x-arity N] [--name m]\n"
         "  export <file.hmt> [-o out.csv]\n"
         "  stats [--csv] [<file> ...]\n"
         "        [--drop-rate P] [--dup-rate P] [--fault-seed N]\n"
         "        with a fault flag, first runs a simulated cover session\n"
         "        under those faults so retransmit/timeout counters show\n"
         "  serve [service flags]\n"
         "        REPL over a QueryService on the bio network\n"
         "        (query Db1,Db2,... / paths / stats / quit)\n"
         "  query [--repeat N] [--threads K] [--path Db1,Db2,...]\n"
         "        [--dump <file>] [--write t:v1,v2,... ...] [service flags]\n"
         "        hammer one request from K client threads (CI soak);\n"
         "        --dump writes one clean cover for conformance diffs;\n"
         "        --write (repeatable, in order) union-merges one row\n"
         "        into a table first — the single-process reference for\n"
         "        the cluster write-path drill\n"
         "  node --config <file> --id <name> [--entities E] [--workers W]\n"
         "        [--port-file <path>] [--print-port] [--log-dir <dir>]\n"
         "        run one cluster process: storage nodes serve shard\n"
         "        slices (--log-dir persists applied writes for restart\n"
         "        recovery); the coordinator is a REPL (query/dump/write/\n"
         "        versions/members/waitalive/shards/stats/evict/quit)\n"
         "  cluster plan|check --config <file>\n"
         "        print (plan) or validate (check) the shard placement\n"
         "  service flags: --entities E --workers W --queue Q --no-cache\n"
         "        --drop-rate P --dup-rate P --fault-seed N\n"
         "        --transport sim|tcp  (tcp = sessions on real\n"
         "        loopback sockets; flags also accept --flag=value form)\n"
         "global flags:\n"
         "  --metrics-json=<path>   dump the metric registry after the "
         "command\n";
  return 1;
}

int Dispatch(const std::string& cmd, std::vector<std::string> args) {
  if (cmd == "create") return CmdCreate(std::move(args));
  if (cmd == "show") return CmdShow(args);
  if (cmd == "add") return CmdAdd(args);
  if (cmd == "ym") return CmdYm(args);
  if (cmd == "compose" || cmd == "cover") return CmdCompose(std::move(args));
  if (cmd == "check") return CmdCheck(args);
  if (cmd == "infer") return CmdInfer(args);
  if (cmd == "diff") return CmdDiff(args);
  if (cmd == "co2cc") return CmdCoToCc(std::move(args));
  if (cmd == "import") return CmdImport(std::move(args));
  if (cmd == "export") return CmdExport(std::move(args));
  if (cmd == "stats") return CmdStats(std::move(args));
  if (cmd == "serve") return CmdServe(std::move(args));
  if (cmd == "query") return CmdQuery(std::move(args));
  if (cmd == "node") return CmdNode(std::move(args));
  if (cmd == "cluster") return CmdCluster(std::move(args));
  return Usage();
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  // --metrics-json=<path> works with every command: after it runs, the
  // default registry is serialized so scripts can scrape what happened.
  std::optional<std::string> metrics_path;
  constexpr std::string_view kFlag = "--metrics-json=";
  for (auto it = args.begin(); it != args.end();) {
    if (it->rfind(kFlag, 0) == 0) {
      metrics_path = it->substr(kFlag.size());
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  int rc = Dispatch(cmd, std::move(args));
  if (metrics_path) {
    Status s = obs::WriteTextFile(
        *metrics_path,
        obs::MetricsToJson(obs::MetricRegistry::Default().Snapshot(), 2) +
            "\n");
    if (!s.ok()) return Fail(s.ToString());
    std::cerr << "metrics written to " << *metrics_path << "\n";
  }
  return rc;
}

}  // namespace
}  // namespace hyperion

int main(int argc, char** argv) { return hyperion::Run(argc, argv); }
