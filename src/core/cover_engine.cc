#include "core/cover_engine.h"

#include <algorithm>
#include <optional>
#include <set>
#include <thread>

#include "core/containment.h"
#include "obs/metrics.h"

namespace hyperion {

namespace {

// keep ∩ schema, preserving keep order.
std::vector<std::string> NamesIn(const std::vector<std::string>& keep,
                                 const AttributeSet& attrs) {
  std::vector<std::string> out;
  for (const std::string& n : keep) {
    if (attrs.Contains(n)) out.push_back(n);
  }
  return out;
}

// Join-order trace for ExplainEmptyCover.
struct JoinTrace {
  std::vector<std::string> joined;  // member names in join order
  std::string emptied_at;          // member that emptied the accumulator
};

// Joins one inferred partition's tables, eagerly projecting onto the
// attributes still needed (endpoint attributes to keep plus attributes of
// tables not yet joined).  With exploit_partitions off the "partition"
// may be disconnected; Cartesian product bridges the gaps.
Result<FreeTable> JoinPartition(
    const ConstraintPath& path, const InferredPartition& partition,
    const std::vector<std::string>& keep, const CoverEngineOptions& opts,
    JoinTrace* trace = nullptr) {
  // Member tables in hop order, read in place.
  std::vector<const FreeTable*> tables;
  std::vector<std::string> names;
  for (const ConstraintRef& ref : partition.members) {
    const MappingConstraint& c = path.hop_constraints(ref.hop)[ref.index];
    tables.push_back(&c.table().free_table());
    names.push_back(c.name());
  }
  std::vector<bool> used(tables.size(), false);
  // Start from the smallest table: joins are output-bounded by their
  // smaller input, so growing the accumulator slowly keeps intermediate
  // results (and dedup hashing) cheap.
  size_t start = 0;
  for (size_t i = 1; i < tables.size(); ++i) {
    if (tables[i]->size() < tables[start]->size()) start = i;
  }
  used[start] = true;
  // The accumulator is the start table itself until the first join or
  // projection result lands in `owned`.
  const FreeTable* acc = tables[start];
  FreeTable owned;
  if (trace != nullptr) {
    trace->joined.push_back(names[start]);
    if (acc->empty()) trace->emptied_at = names[start];
  }
  size_t remaining = tables.size() - 1;
  while (remaining > 0) {
    // Pick the smallest unused table overlapping acc; inferred partitions
    // are connected, so one exists unless partitioning is ablated away.
    size_t pick = tables.size();
    AttributeSet acc_attrs = acc->schema().ToSet();
    for (size_t i = 0; i < tables.size(); ++i) {
      if (!used[i] && acc_attrs.Overlaps(tables[i]->schema().ToSet()) &&
          (pick == tables.size() ||
           tables[i]->size() < tables[pick]->size())) {
        pick = i;
      }
    }
    if (pick == tables.size()) {
      if (opts.exploit_partitions) {
        return Status::Internal(
            "inferred partition is not connected via attribute overlap");
      }
      for (size_t i = 0; i < tables.size(); ++i) {
        if (!used[i]) {
          pick = i;
          break;
        }
      }
    }
    HYP_ASSIGN_OR_RETURN(owned, acc->NaturalJoin(*tables[pick], opts.compose));
    acc = &owned;
    used[pick] = true;
    --remaining;
    if (trace != nullptr) trace->joined.push_back(names[pick]);
    if (acc->empty()) {
      if (trace != nullptr) trace->emptied_at = names[pick];
      break;  // join already empty: nothing more to learn
    }
    if (!opts.eager_projection) continue;
    // Eager projection: drop attributes neither kept nor needed later.
    std::set<std::string> needed(keep.begin(), keep.end());
    for (size_t i = 0; i < tables.size(); ++i) {
      if (used[i]) continue;
      for (const Attribute& a : tables[i]->schema().attrs()) {
        needed.insert(a.name());
      }
    }
    std::vector<std::string> project_to;
    for (const Attribute& a : acc->schema().attrs()) {
      if (needed.count(a.name())) project_to.push_back(a.name());
    }
    if (project_to.size() < acc->schema().arity() && !project_to.empty()) {
      HYP_ASSIGN_OR_RETURN(owned, acc->ProjectOnto(project_to, opts.compose));
    }
  }
  // Lazy mode leaves every column in place; reduce to keep ∩ schema here
  // so the caller sees the same shape either way.
  if (!opts.eager_projection) {
    std::vector<std::string> project_to;
    std::set<std::string> keep_set(keep.begin(), keep.end());
    for (const Attribute& a : acc->schema().attrs()) {
      if (keep_set.count(a.name())) project_to.push_back(a.name());
    }
    if (!project_to.empty() &&
        project_to.size() < acc->schema().arity()) {
      HYP_ASSIGN_OR_RETURN(owned, acc->ProjectOnto(project_to, opts.compose));
      acc = &owned;
    }
  }
  if (acc != &owned) return *acc;
  return owned;
}

}  // namespace

Result<std::vector<PartitionCover>> CoverEngine::ComputePartitionCovers(
    const ConstraintPath& path, const std::vector<std::string>& x_names,
    const std::vector<std::string>& y_names) const {
  // Validate endpoints.
  for (const std::string& n : x_names) {
    if (!path.peer_attrs(0).Contains(n)) {
      return Status::InvalidArgument("X attribute '" + n +
                                     "' not in the first peer");
    }
  }
  for (const std::string& n : y_names) {
    if (!path.peer_attrs(path.num_peers() - 1).Contains(n)) {
      return Status::InvalidArgument("Y attribute '" + n +
                                     "' not in the last peer");
    }
  }
  std::vector<std::string> keep_all = x_names;
  keep_all.insert(keep_all.end(), y_names.begin(), y_names.end());

  std::vector<InferredPartition> partitions =
      ComputeInferredPartitions(path.all_hop_constraints());
  if constexpr (obs::kMetricsEnabled) {
    obs::MetricRegistry& reg = obs::MetricRegistry::Default();
    reg.GetCounter("engine.partition_covers_computed")
        ->Add(partitions.size());
  }
  if (!opts_.exploit_partitions && partitions.size() > 1) {
    // Ablation: lump everything into one (possibly disconnected) group.
    InferredPartition merged;
    for (const InferredPartition& p : partitions) {
      merged.members.insert(merged.members.end(), p.members.begin(),
                            p.members.end());
      merged.attributes = merged.attributes.Union(p.attributes);
      merged.first_hop = std::min(merged.first_hop, p.first_hop);
      merged.last_hop = std::max(merged.last_hop, p.last_hop);
    }
    std::sort(merged.members.begin(), merged.members.end());
    partitions = {std::move(merged)};
  }

  // One partition's cover; partitions are independent, so this can run
  // on its own thread.
  auto compute_one = [&](InferredPartition partition) -> Result<PartitionCover> {
    PartitionCover pc;
    pc.keep_names = NamesIn(keep_all, partition.attributes);
    HYP_ASSIGN_OR_RETURN(
        FreeTable joined,
        JoinPartition(path, partition, pc.keep_names, opts_));
    pc.satisfiable = joined.IsSatisfiable();
    if (!pc.keep_names.empty() && pc.satisfiable) {
      HYP_ASSIGN_OR_RETURN(pc.cover,
                           joined.ProjectOnto(pc.keep_names, opts_.compose));
      pc.satisfiable = pc.cover.IsSatisfiable();
    }
    pc.partition = std::move(partition);
    return pc;
  };

  if (opts_.parallel_partitions && partitions.size() > 1) {
    std::vector<std::optional<Result<PartitionCover>>> slots(
        partitions.size());
    std::vector<std::thread> workers;
    workers.reserve(partitions.size());
    for (size_t i = 0; i < partitions.size(); ++i) {
      workers.emplace_back([&, i] { slots[i] = compute_one(partitions[i]); });
    }
    for (std::thread& w : workers) w.join();
    std::vector<PartitionCover> out;
    for (std::optional<Result<PartitionCover>>& slot : slots) {
      if (!slot->ok()) return slot->status();
      out.push_back(std::move(*slot).value());
    }
    return out;
  }

  std::vector<PartitionCover> out;
  for (InferredPartition& partition : partitions) {
    HYP_ASSIGN_OR_RETURN(PartitionCover pc,
                         compute_one(std::move(partition)));
    out.push_back(std::move(pc));
  }
  return out;
}

Result<MappingTable> CoverEngine::CombinePartitionCovers(
    const std::vector<PartitionCover>& covers,
    const std::vector<Attribute>& x_attrs,
    const std::vector<Attribute>& y_attrs, const CoverEngineOptions& opts) {
  if (x_attrs.empty() || y_attrs.empty()) {
    return Status::InvalidArgument("cover endpoints X and Y must be nonempty");
  }
  std::vector<std::string> x_names;
  for (const Attribute& a : x_attrs) x_names.push_back(a.name());
  std::vector<std::string> y_names;
  for (const Attribute& a : y_attrs) y_names.push_back(a.name());
  HYP_ASSIGN_OR_RETURN(
      MappingTable empty_result,
      MappingTable::Create(Schema(x_attrs), Schema(y_attrs), "cover"));

  // Any unsatisfiable partition empties the whole cover.
  for (const PartitionCover& pc : covers) {
    if (!pc.satisfiable) return empty_result;
    if (!pc.keep_names.empty() && pc.cover.empty()) return empty_result;
  }

  // Cartesian product of the partition covers that touch the endpoints,
  // as joins of tables that share no attribute; the first is read in
  // place, not copied.
  const FreeTable* acc = nullptr;
  FreeTable product;
  std::set<std::string> covered;
  for (const PartitionCover& pc : covers) {
    if (pc.keep_names.empty()) continue;
    covered.insert(pc.keep_names.begin(), pc.keep_names.end());
    if (acc == nullptr) {
      acc = &pc.cover;
    } else {
      HYP_ASSIGN_OR_RETURN(product, acc->NaturalJoin(pc.cover, opts.compose));
      acc = &product;
    }
  }
  // Unconstrained endpoint attributes: one row of fresh variables.
  std::vector<Attribute> free_attrs;
  for (const Attribute& a : x_attrs) {
    if (!covered.count(a.name())) free_attrs.push_back(a);
  }
  for (const Attribute& a : y_attrs) {
    if (!covered.count(a.name())) free_attrs.push_back(a);
  }
  if (!free_attrs.empty()) {
    FreeTable free_table{Schema(free_attrs)};
    Mapping::Builder cells(free_attrs.size());
    for (size_t i = 0; i < free_attrs.size(); ++i) {
      cells.Append(Cell::Variable(static_cast<VarId>(i)));
    }
    free_table.AddRow(std::move(cells).Build());
    if (acc == nullptr) {
      product = std::move(free_table);
    } else {
      HYP_ASSIGN_OR_RETURN(product,
                           acc->NaturalJoin(free_table, opts.compose));
    }
    acc = &product;
  }
  if (acc == nullptr) {
    return Status::Internal("cover combination produced no attributes");
  }
  // The product's columns are exactly X ∪ Y, so ordering them X ++ Y is
  // a permutation, which the split does in the same pass.
  if (opts.minimize) {
    HYP_ASSIGN_OR_RETURN(product, RemoveSubsumedRows(*acc));
    acc = &product;
  }
  return acc->ToMappingTable(x_names, "cover", y_names);
}

Result<MappingTable> CoverEngine::ComputeCover(
    const ConstraintPath& path, const std::vector<std::string>& x_names,
    const std::vector<std::string>& y_names) const {
  if constexpr (obs::kMetricsEnabled) {
    obs::MetricRegistry::Default().GetCounter("engine.covers_computed")
        ->Add(1);
  }
  HYP_ASSIGN_OR_RETURN(std::vector<PartitionCover> covers,
                       ComputePartitionCovers(path, x_names, y_names));
  // Resolve endpoint attribute objects from the path's end peers.
  AttributeSet endpoint_attrs =
      path.peer_attrs(0).Union(path.peer_attrs(path.num_peers() - 1));
  auto find_attr = [&endpoint_attrs](const std::string& n) -> const Attribute* {
    for (const Attribute& a : endpoint_attrs.attrs()) {
      if (a.name() == n) return &a;
    }
    return nullptr;
  };
  std::vector<Attribute> x_attrs;
  for (const std::string& n : x_names) {
    const Attribute* a = find_attr(n);
    if (a == nullptr) {
      return Status::InvalidArgument("unknown X attribute '" + n + "'");
    }
    x_attrs.push_back(*a);
  }
  std::vector<Attribute> y_attrs;
  for (const std::string& n : y_names) {
    const Attribute* a = find_attr(n);
    if (a == nullptr) {
      return Status::InvalidArgument("unknown Y attribute '" + n + "'");
    }
    y_attrs.push_back(*a);
  }
  return CombinePartitionCovers(covers, x_attrs, y_attrs, opts_);
}

Result<CoverEngine::EmptyCoverDiagnosis> CoverEngine::ExplainEmptyCover(
    const ConstraintPath& path, const std::vector<std::string>& x_names,
    const std::vector<std::string>& y_names) const {
  std::vector<std::string> keep_all = x_names;
  keep_all.insert(keep_all.end(), y_names.begin(), y_names.end());
  std::vector<InferredPartition> partitions =
      ComputeInferredPartitions(path.all_hop_constraints());
  for (size_t i = 0; i < partitions.size(); ++i) {
    std::vector<std::string> keep =
        NamesIn(keep_all, partitions[i].attributes);
    JoinTrace trace;
    HYP_ASSIGN_OR_RETURN(
        FreeTable joined,
        JoinPartition(path, partitions[i], keep, opts_, &trace));
    if (joined.empty()) {
      EmptyCoverDiagnosis d;
      d.cover_is_empty = true;
      d.partition_index = i;
      d.emptied_at_table = trace.emptied_at;
      d.joined_before = trace.joined;
      if (!d.joined_before.empty() && !d.emptied_at_table.empty()) {
        d.joined_before.pop_back();  // the last one IS the failure point
      }
      return d;
    }
    if (!keep.empty()) {
      HYP_ASSIGN_OR_RETURN(FreeTable projected,
                           joined.ProjectOnto(keep, opts_.compose));
      if (projected.empty()) {
        EmptyCoverDiagnosis d;
        d.cover_is_empty = true;
        d.partition_index = i;
        d.joined_before = trace.joined;
        return d;
      }
    }
  }
  return EmptyCoverDiagnosis{};  // cover nonempty
}

Result<MappingTable> CoverEngine::CoverDeltaForAddedRows(
    const ConstraintPath& path, size_t hop, size_t index,
    const std::vector<Mapping>& added_rows,
    const std::vector<std::string>& x_names,
    const std::vector<std::string>& y_names) const {
  if (hop >= path.num_hops() ||
      index >= path.hop_constraints(hop).size()) {
    return Status::InvalidArgument("no constraint at hop " +
                                   std::to_string(hop) + " index " +
                                   std::to_string(index));
  }
  const MappingConstraint& changed = path.hop_constraints(hop)[index];
  // Build the delta table: the changed constraint's schema, Δ rows only.
  HYP_ASSIGN_OR_RETURN(
      MappingTable delta_table,
      MappingTable::Create(changed.x_schema(), changed.y_schema(),
                           changed.name()));
  for (const Mapping& row : added_rows) {
    HYP_RETURN_IF_ERROR(delta_table.AddRow(row));
  }
  // Replace the constraint by Δ and run the ordinary cover computation:
  // the result is exactly what the addition contributes.
  std::vector<std::vector<MappingConstraint>> hops =
      path.all_hop_constraints();
  hops[hop][index] = MappingConstraint(std::move(delta_table));
  std::vector<AttributeSet> peer_attrs;
  std::vector<std::string> peer_names;
  for (size_t i = 0; i < path.num_peers(); ++i) {
    peer_attrs.push_back(path.peer_attrs(i));
    peer_names.push_back(path.peer_name(i));
  }
  HYP_ASSIGN_OR_RETURN(
      ConstraintPath delta_path,
      ConstraintPath::Create(std::move(peer_attrs), std::move(hops),
                             std::move(peer_names)));
  return ComputeCover(delta_path, x_names, y_names);
}

Result<bool> CoverEngine::CheckPathConsistency(
    const ConstraintPath& path) const {
  std::vector<std::string> x_names = path.peer_attrs(0).Names();
  std::vector<std::string> y_names =
      path.peer_attrs(path.num_peers() - 1).Names();
  HYP_ASSIGN_OR_RETURN(MappingTable cover,
                       ComputeCover(path, x_names, y_names));
  return cover.IsSatisfiable();
}

}  // namespace hyperion
