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
  CountProto("cover.join_index_builds");
  auto owned = std::make_shared<const OwnedIndex>(
      OwnedIndex{std::move(build), std::move(index)});
  return std::shared_ptr<const JoinIndex>(owned, &owned->index);
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

size_t JoinIndexStore::size() const {
  MutexLock lock(mu_);
  return slots_.size();
}

}  // namespace hyperion
