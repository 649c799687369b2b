#include "core/mapping.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/hash_util.h"

namespace hyperion {

Mapping::Block* Mapping::Allocate(size_t arity) {
  void* memory = ::operator new(sizeof(Block) + arity * sizeof(Cell));
  return new (memory) Block{{1}, static_cast<uint32_t>(arity)};
}

void Mapping::Free(Block* block) {
  std::destroy_n(block->cells(), block->arity);
  ::operator delete(block);
}

Mapping::Builder::Builder(size_t arity) {
  assert(arity <= UINT32_MAX);
  if (arity != 0) block_ = Allocate(arity);
}

Mapping::Builder::~Builder() {
  if (block_ == nullptr) return;  // built, or arity 0
  // Abandoned part-way: only the appended cells were constructed.
  std::destroy_n(block_->cells(), size_);
  ::operator delete(block_);
}

Mapping::Mapping(std::vector<Cell> cells) {
  Builder b(cells.size());
  for (Cell& c : cells) b.Append(std::move(c));
  *this = std::move(b).Build();
}

Mapping Mapping::FromTuple(const Tuple& t) {
  Builder b(t.size());
  for (const Value& v : t) b.Append(Cell::Constant(v));
  return std::move(b).Build();
}

bool Mapping::IsGround() const {
  for (const Cell& c : cells()) {
    if (c.is_variable()) return false;
  }
  return true;
}

std::map<VarId, std::vector<size_t>> Mapping::VariableClasses() const {
  std::map<VarId, std::vector<size_t>> classes;
  for (size_t i = 0; i < arity(); ++i) {
    if (cell(i).is_variable()) classes[cell(i).var()].push_back(i);
  }
  return classes;
}

std::set<Value> Mapping::CombinedExclusions(VarId var) const {
  std::set<Value> out;
  for (const Cell& c : cells()) {
    if (c.is_variable() && c.var() == var) {
      out.insert(c.exclusions().begin(), c.exclusions().end());
    }
  }
  return out;
}

bool Mapping::MatchesGround(const Tuple& t, const Schema& schema) const {
  if (t.size() != arity()) return false;
  std::unordered_map<VarId, const Value*> binding;
  for (size_t i = 0; i < arity(); ++i) {
    const Cell& c = cell(i);
    if (c.is_constant()) {
      if (!(c.value() == t[i])) return false;
      continue;
    }
    if (!c.AdmitsValue(t[i])) return false;
    if (!schema.attr(i).domain()->Contains(t[i])) return false;
    auto [it, inserted] = binding.emplace(c.var(), &t[i]);
    if (!inserted && !(*it->second == t[i])) return false;
  }
  return true;
}

bool Mapping::IsSatisfiable(const Schema& schema) const {
  assert(arity() == schema.arity());
  for (const auto& [var, positions] : VariableClasses()) {
    std::vector<const Domain*> domains;
    domains.reserve(positions.size());
    std::set<Value> excluded;
    for (size_t p : positions) {
      domains.push_back(schema.attr(p).domain().get());
      const auto& ex = cell(p).exclusions();
      excluded.insert(ex.begin(), ex.end());
    }
    if (!Domain::IntersectionHasValueOutside(domains, excluded)) return false;
  }
  // Constants are assumed domain-checked on construction (MappingTable::Add
  // validates them); re-check cheaply anyway for safety.
  for (size_t i = 0; i < arity(); ++i) {
    if (cell(i).is_constant() &&
        !schema.attr(i).domain()->Contains(cell(i).value())) {
      return false;
    }
  }
  return true;
}

std::optional<Tuple> Mapping::PickWitness(const Schema& schema) const {
  Tuple out(arity());
  for (size_t i = 0; i < arity(); ++i) {
    if (cell(i).is_constant()) {
      if (!schema.attr(i).domain()->Contains(cell(i).value())) {
        return std::nullopt;
      }
      out[i] = cell(i).value();
    }
  }
  for (const auto& [var, positions] : VariableClasses()) {
    std::vector<const Domain*> domains;
    std::set<Value> excluded;
    for (size_t p : positions) {
      domains.push_back(schema.attr(p).domain().get());
      const auto& ex = cell(p).exclusions();
      excluded.insert(ex.begin(), ex.end());
    }
    auto v = Domain::PickInIntersectionOutside(domains, excluded);
    if (!v) return std::nullopt;
    for (size_t p : positions) out[p] = *v;
  }
  return out;
}

Mapping Mapping::Project(const std::vector<size_t>& positions) const {
  bool identity = positions.size() == arity();
  for (size_t i = 0; identity && i < arity(); ++i) {
    identity = positions[i] == i;
  }
  if (identity) return *this;
  Builder b(positions.size());
  for (size_t p : positions) {
    assert(p < arity());
    b.Append(cell(p));
  }
  return std::move(b).Build();
}

Mapping Mapping::Normalized() const {
  std::unordered_map<VarId, VarId> rename;
  Builder b(arity());
  for (const Cell& c : cells()) {
    if (c.is_constant()) {
      b.Append(c);
      continue;
    }
    auto [it, inserted] =
        rename.emplace(c.var(), static_cast<VarId>(rename.size()));
    b.Append(Cell::Variable(it->second, c.exclusions_ptr()));
    (void)inserted;
  }
  return std::move(b).Build();
}

bool Mapping::IsNormalized() const {
  // Normalized ids are dense in first-occurrence order: each variable is
  // either one already seen (below `next`) or exactly the next new id.
  VarId next = 0;
  for (const Cell& c : cells()) {
    if (c.is_constant() || c.var() < next) continue;
    if (c.var() != next) return false;
    ++next;
  }
  return true;
}

Mapping Mapping::WithVarOffset(VarId offset) const {
  Builder b(arity());
  for (const Cell& c : cells()) {
    if (c.is_constant()) {
      b.Append(c);
    } else {
      b.Append(Cell::Variable(c.var() + offset, c.exclusions_ptr()));
    }
  }
  return std::move(b).Build();
}

namespace {

// Recursively assigns values to variable classes and emits ground tuples.
Status EnumerateRec(
    const Mapping& m, const Schema& schema,
    const std::vector<std::pair<VarId, std::vector<size_t>>>& classes,
    size_t class_idx, Tuple* current, size_t limit,
    std::vector<Tuple>* out) {
  if (class_idx == classes.size()) {
    if (out->size() >= limit) {
      return Status::InvalidArgument("extension exceeds enumeration limit");
    }
    out->push_back(*current);
    return Status::OK();
  }
  const auto& [var, positions] = classes[class_idx];
  (void)var;
  // Candidate values: the finite domain of the first position, filtered by
  // the other positions' domains and all exclusion sets.
  const Domain* base = schema.attr(positions[0]).domain().get();
  if (!base->is_finite()) {
    return Status::InvalidArgument(
        "cannot enumerate extension: attribute '" +
        schema.attr(positions[0]).name() + "' has an infinite domain");
  }
  for (const Value& v : base->values()) {
    bool admissible = true;
    for (size_t p : positions) {
      if (!schema.attr(p).domain()->Contains(v) ||
          !m.cell(p).AdmitsValue(v)) {
        admissible = false;
        break;
      }
    }
    if (!admissible) continue;
    for (size_t p : positions) (*current)[p] = v;
    HYP_RETURN_IF_ERROR(EnumerateRec(m, schema, classes, class_idx + 1,
                                     current, limit, out));
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<Tuple>> Mapping::EnumerateExtension(const Schema& schema,
                                                       size_t limit) const {
  assert(arity() == schema.arity());
  Tuple current(arity());
  for (size_t i = 0; i < arity(); ++i) {
    if (cell(i).is_constant()) {
      if (!schema.attr(i).domain()->Contains(cell(i).value())) {
        return std::vector<Tuple>{};  // unsatisfiable: empty extension
      }
      current[i] = cell(i).value();
    }
  }
  std::vector<std::pair<VarId, std::vector<size_t>>> classes;
  for (auto& [var, positions] : VariableClasses()) {
    classes.emplace_back(var, positions);
  }
  std::vector<Tuple> out;
  HYP_RETURN_IF_ERROR(
      EnumerateRec(*this, schema, classes, 0, &current, limit, &out));
  return out;
}

std::string Mapping::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < arity(); ++i) {
    if (i != 0) os << ", ";
    os << cell(i).ToString();
  }
  os << ")";
  return os.str();
}

size_t Mapping::Hash() const {
  size_t seed = arity();
  for (const Cell& c : cells()) HashCombine(&seed, c.Hash());
  return seed;
}

}  // namespace hyperion
