#include "p2p/join_index_store.h"

#include <utility>

#include "p2p/proto_trace.h"

namespace hyperion {

namespace {

// An index together with the table it points into.
struct OwnedIndex {
  std::shared_ptr<const FreeTable> build;
  JoinIndex index;
};

bool SameDomain(const Domain& a, const Domain& b) {
  return &a == &b ||
         (a.kind() == b.kind() && a.name() == b.name() &&
          a.value_type() == b.value_type() && a.values() == b.values());
}

// Equal attribute names and domains, in order (Schema's == compares
// names only).
bool SameSchema(const Schema& a, const Schema& b) {
  if (!(a == b)) return false;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (!SameDomain(*a.attr(i).domain(), *b.attr(i).domain())) return false;
  }
  return true;
}

bool Serves(const JoinIndex& index, const FreeTable& build,
            const Schema& probe_schema) {
  return &index.build() == &build &&
         SameSchema(index.probe_schema(), probe_schema);
}

std::string SlotKey(const std::string& table, const Schema& probe_schema) {
  std::string key = table;
  for (const Attribute& a : probe_schema.attrs()) {
    key += '\n';
    key += a.name();
  }
  return key;
}

Result<std::shared_ptr<const JoinIndex>> BuildIndex(
    std::shared_ptr<const FreeTable> build, const Schema& probe_schema) {
  HYP_ASSIGN_OR_RETURN(JoinIndex index, JoinIndex::Build(*build, probe_schema));
  CountProto<"cover.join_index_builds">();
  auto owned = std::make_shared<const OwnedIndex>(
      OwnedIndex{std::move(build), std::move(index)});
  return std::shared_ptr<const JoinIndex>(owned, &owned->index);
}

std::string ProjectionKey(const std::string& table,
                          const std::vector<std::string>& names,
                          const ComposeOptions& opts) {
  std::string key = table;
  for (const std::string& name : names) {
    key += '\n';
    key += name;
  }
  key += '\n';
  key += std::to_string(opts.materialize_limit);
  key += '/';
  key += std::to_string(opts.max_result_rows);
  return key;
}

// A projection together with the table it was projected from.
struct OwnedProjection {
  std::shared_ptr<const FreeTable> source;
  FreeTable projection;
};

Result<std::shared_ptr<const FreeTable>> BuildProjection(
    std::shared_ptr<const FreeTable> local,
    const std::vector<std::string>& names, const ComposeOptions& opts) {
  HYP_ASSIGN_OR_RETURN(FreeTable projection, local->ProjectOnto(names, opts));
  CountProto<"cover.starter_projection_builds">();
  auto owned = std::make_shared<const OwnedProjection>(
      OwnedProjection{std::move(local), std::move(projection)});
  return std::shared_ptr<const FreeTable>(owned, &owned->projection);
}

}  // namespace

Result<std::shared_ptr<const JoinIndex>> JoinIndexStore::Get(
    const std::string& table, std::shared_ptr<const FreeTable> build,
    const Schema& probe_schema) {
  if (table.empty()) return BuildIndex(std::move(build), probe_schema);
  const std::string key = SlotKey(table, probe_schema);
  {
    MutexLock lock(mu_);
    auto it = slots_.find(key);
    if (it != slots_.end() && Serves(*it->second, *build, probe_schema)) {
      return it->second;
    }
  }
  HYP_ASSIGN_OR_RETURN(std::shared_ptr<const JoinIndex> index,
                       BuildIndex(std::move(build), probe_schema));
  std::shared_ptr<const JoinIndex> replaced;  // destroyed after unlocking
  MutexLock lock(mu_);
  std::shared_ptr<const JoinIndex>& slot = slots_[key];
  // Another session may have built the same index meanwhile: keep one.
  if (slot != nullptr && Serves(*slot, index->build(), probe_schema)) {
    return slot;
  }
  replaced = std::move(slot);
  slot = index;
  return index;
}

Result<std::shared_ptr<const FreeTable>> JoinIndexStore::GetProjection(
    const std::string& table, std::shared_ptr<const FreeTable> local,
    const std::vector<std::string>& names, const ComposeOptions& opts) {
  if (table.empty()) return BuildProjection(std::move(local), names, opts);
  const std::string key = ProjectionKey(table, names, opts);
  const FreeTable* source = local.get();
  {
    MutexLock lock(mu_);
    auto it = projections_.find(key);
    if (it != projections_.end() && it->second.source == source) {
      return it->second.projection;
    }
  }
  HYP_ASSIGN_OR_RETURN(std::shared_ptr<const FreeTable> projection,
                       BuildProjection(std::move(local), names, opts));
  std::shared_ptr<const FreeTable> replaced;  // destroyed after unlocking
  MutexLock lock(mu_);
  ProjectionSlot& slot = projections_[key];
  // Another session may have built the same projection meanwhile: keep
  // one.
  if (slot.source == source) return slot.projection;
  replaced = std::move(slot.projection);
  slot = ProjectionSlot{source, projection};
  return projection;
}

size_t JoinIndexStore::size() const {
  MutexLock lock(mu_);
  return slots_.size();
}

size_t JoinIndexStore::projections() const {
  MutexLock lock(mu_);
  return projections_.size();
}

}  // namespace hyperion
