#include "core/compose.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "core/unify.h"

namespace hyperion {

namespace {

// Highest variable id used by `m`, plus one (0 when ground).
VarId VarSpan(const Mapping& m) {
  VarId span = 0;
  for (const Cell& c : m.cells()) {
    if (c.is_variable()) span = std::max(span, c.var() + 1);
  }
  return span;
}

// Registers every variable occurrence of `m` (positioned in `schema`,
// with var ids shifted by `offset`) into `u`.
void RegisterOccurrences(const Mapping& m, const Schema& schema,
                         VarId offset, Unifier* u) {
  for (size_t i = 0; i < m.arity(); ++i) {
    const Cell& c = m.cell(i);
    if (c.is_variable()) {
      u->AddOccurrence(c.var() + offset, schema.attr(i).domain().get(),
                       c.exclusions_ptr());
    }
  }
}

// Resolves `cell` (with var ids shifted by `offset`) through the unifier:
// constants pass through, constant-bound classes become constants, live
// classes get a dense output var id carrying the class exclusions.
Cell ResolveCell(const Cell& cell, VarId offset, Unifier* u,
                 std::unordered_map<VarId, VarId>* out_vars) {
  if (cell.is_constant()) return cell;
  VarId shifted = cell.var() + offset;
  if (auto constant = u->ConstantOf(shifted)) {
    return Cell::Constant(*constant);
  }
  VarId root = u->Find(shifted);
  auto [it, inserted] =
      out_vars->emplace(root, static_cast<VarId>(out_vars->size()));
  (void)inserted;
  return Cell::Variable(it->second, u->MergedExclusionsOf(shifted));
}

// Registers rows `a` (var ids as is) and `b` (var ids shifted by
// `offset`) in `u` and unifies their cells at the (a, b) position pairs
// `shared`; false when the pair admits no common values there.
bool UnifyShared(const Mapping& a, const Schema& a_schema, const Mapping& b,
                 const Schema& b_schema,
                 const std::vector<std::pair<size_t, size_t>>& shared,
                 VarId offset, Unifier* u) {
  RegisterOccurrences(a, a_schema, /*offset=*/0, u);
  RegisterOccurrences(b, b_schema, offset, u);
  for (const auto& [pi, pj] : shared) {
    Cell bc = b.cell(pj);
    if (bc.is_variable()) {
      bc = Cell::Variable(bc.var() + offset, bc.exclusions_ptr());
    }
    u->UnifyCells(a.cell(pi), bc);
    if (u->failed()) return false;
  }
  return u->Satisfiable();
}

// The failures of a join or a projection past opts.max_result_rows, the
// same from every path that computes one.
Status JoinTooLarge() {
  return Status::InvalidArgument("NaturalJoin: result exceeds max rows");
}
Status ProjectionTooLarge() {
  return Status::InvalidArgument("ProjectOnto: result exceeds max rows");
}

// The constants of `row` at the `side` member of each shared position
// pair, or false when one of those cells is a variable.
template <size_t side>
bool GroundKey(const Mapping& row,
               const std::vector<std::pair<size_t, size_t>>& shared,
               Tuple* key) {
  key->clear();
  for (const auto& positions : shared) {
    const Cell& c = row.cell(std::get<side>(positions));
    if (!c.is_constant()) return false;
    key->push_back(c.value());
  }
  return true;
}

}  // namespace

std::optional<FreeTable::Slot> FreeTable::Insert(Mapping row) {
  assert(row.arity() == schema_.arity());
  if (!row.IsNormalized()) row = row.Normalized();
  const size_t hash = row.Hash();
  // Stored rows are satisfiable, so a duplicate needs no further check.
  if (auto pos = row_index_.Find(rows_, row, hash)) return Slot{*pos, false};
  if (!row.IsSatisfiable(schema_)) return std::nullopt;
  rows_.push_back(std::move(row));
  row_index_.Insert(hash, rows_.size() - 1);
  return Slot{rows_.size() - 1, true};
}

bool FreeTable::MatchesGround(const Tuple& t) const {
  for (const Mapping& row : rows_) {
    if (row.MatchesGround(t, schema_)) return true;
  }
  return false;
}

FreeTable FreeTable::FromMappingTable(const MappingTable& table) {
  return table.free_table();
}

Result<MappingTable> FreeTable::ToMappingTable(
    const std::vector<std::string>& x_names, std::string name,
    const std::vector<std::string>& y_names) const {
  HYP_ASSIGN_OR_RETURN(std::vector<size_t> x_positions,
                       schema_.PositionsOf(x_names));
  std::vector<bool> is_x(schema_.arity(), false);
  for (size_t p : x_positions) is_x[p] = true;
  std::vector<size_t> y_positions;
  if (y_names.empty()) {
    for (size_t i = 0; i < schema_.arity(); ++i) {
      if (!is_x[i]) y_positions.push_back(i);
    }
  } else {
    HYP_ASSIGN_OR_RETURN(y_positions, schema_.PositionsOf(y_names));
    std::vector<bool> taken = is_x;
    for (size_t p : y_positions) {
      if (taken[p]) {
        return Status::InvalidArgument("ToMappingTable: column '" +
                                       schema_.attr(p).name() +
                                       "' named twice");
      }
      taken[p] = true;
    }
    if (std::find(taken.begin(), taken.end(), false) != taken.end()) {
      return Status::InvalidArgument(
          "ToMappingTable: X and Y leave a column of " + schema_.ToString() +
          " out");
    }
  }
  HYP_ASSIGN_OR_RETURN(
      MappingTable table,
      MappingTable::Create(schema_.Project(x_positions),
                           schema_.Project(y_positions), std::move(name)));
  std::vector<size_t> order = x_positions;
  order.insert(order.end(), y_positions.begin(), y_positions.end());
  for (const Mapping& row : rows_) {
    HYP_RETURN_IF_ERROR(table.AddRow(row.Project(order)));
  }
  return table;
}

Result<FreeTable> FreeTable::NaturalJoin(const FreeTable& other,
                                         const ComposeOptions& opts) const {
  HYP_ASSIGN_OR_RETURN(JoinIndex index, JoinIndex::Build(*this, other.schema_));
  return index.Join(other.schema_, other.rows_, opts);
}

Result<JoinIndex> JoinIndex::Build(const FreeTable& build,
                                   const Schema& probe_schema) {
  JoinIndex index;
  index.build_ = &build;
  index.probe_schema_ = probe_schema;
  for (size_t j = 0; j < probe_schema.arity(); ++j) {
    auto here = build.schema().IndexOf(probe_schema.attr(j).name());
    if (here) {
      index.shared_.emplace_back(*here, j);
    } else {
      index.probe_private_.push_back(j);
    }
  }
  if (index.shared_.empty()) {
    return Status::InvalidArgument(
        "NaturalJoin: schemas " + build.schema().ToString() + " and " +
        probe_schema.ToString() + " share no attributes");
  }
  index.out_schema_ = build.schema();
  if (!index.probe_private_.empty()) {
    HYP_ASSIGN_OR_RETURN(
        index.out_schema_,
        build.schema().Concat(probe_schema.Project(index.probe_private_)));
  }
  Tuple key;
  index.ground_build_.reserve(build.rows().size());
  for (size_t r = 0; r < build.rows().size(); ++r) {
    if (GroundKey<0>(build.rows()[r], index.shared_, &key)) {
      index.ground_rows_[key].push_back(static_cast<uint32_t>(r));
    } else {
      index.variable_rows_.push_back(static_cast<uint32_t>(r));
    }
    index.ground_build_.push_back(build.rows()[r].IsGround());
  }
  return index;
}

Status JoinIndex::CheckProbeSchema(const Schema& probe_schema) const {
  if (probe_schema == probe_schema_) return Status::OK();
  std::string message = "JoinIndex: probe schema ";
  message.append(probe_schema.ToString())
      .append(" is not the indexed ")
      .append(probe_schema_.ToString());
  return Status::InvalidArgument(message);
}

std::vector<JoinIndex::Candidate> JoinIndex::Candidates(
    std::span<const Mapping> rows) const {
  // Collect the candidate (build row, rank, probe row) pairs, then sort
  // them.  The order is the one a scan of the build rows gives: a build
  // row with ground shared cells meets the probe rows with equal
  // constants (rank 0) before those with a variable there (rank 1); any
  // other build row meets every probe row (rank 0).  Emitting in that
  // order makes the first of two duplicate results the one kept, exactly
  // as a build-side scan keeps it.
  std::vector<Candidate> candidates;
  Tuple key;
  for (size_t r = 0; r < rows.size(); ++r) {
    const auto pr = static_cast<uint32_t>(r);
    if (GroundKey<1>(rows[r], shared_, &key)) {
      auto it = ground_rows_.find(key);
      if (it != ground_rows_.end()) {
        for (uint32_t a : it->second) candidates.push_back({a, 0, pr});
      }
    } else {
      for (const auto& bucket : ground_rows_) {
        for (uint32_t a : bucket.second) candidates.push_back({a, 1, pr});
      }
    }
    for (uint32_t a : variable_rows_) candidates.push_back({a, 0, pr});
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

std::optional<Mapping> JoinIndex::JoinPair(const Mapping& a,
                                           const Mapping& b) const {
  const VarId offset = VarSpan(a);
  Unifier u;
  if (!UnifyShared(a, build_->schema(), b, probe_schema_, shared_, offset,
                   &u)) {
    return std::nullopt;
  }
  std::unordered_map<VarId, VarId> out_vars;
  std::vector<Cell> cells;
  cells.reserve(out_schema_.arity());
  for (size_t i = 0; i < a.arity(); ++i) {
    cells.push_back(ResolveCell(a.cell(i), 0, &u, &out_vars));
  }
  for (size_t pj : probe_private_) {
    cells.push_back(ResolveCell(b.cell(pj), offset, &u, &out_vars));
  }
  return Mapping(std::move(cells));
}

Result<FreeTable> JoinIndex::Join(const Schema& probe_schema,
                                  std::span<const Mapping> rows,
                                  const ComposeOptions& opts) const {
  HYP_RETURN_IF_ERROR(CheckProbeSchema(probe_schema));
  const std::vector<Candidate> candidates = Candidates(rows);
  FreeTable out(out_schema_);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const Candidate& c = candidates[i];
    if (std::optional<Mapping> joined =
            JoinPair(build_->rows()[c.build], rows[c.probe])) {
      out.AddRow(std::move(*joined));
    }
    bool row_done =
        i + 1 == candidates.size() || candidates[i + 1].build != c.build;
    if (row_done && out.size() > opts.max_result_rows) return JoinTooLarge();
  }
  return out;
}

std::optional<JoinIndex::Candidate> JoinIndex::GroundPairOf(
    const Mapping& joined, std::span<const Mapping> rows,
    std::optional<RowIndex>* probe_index) const {
  // A joined row is the build row followed by the probe row's private
  // cells; the probe row's shared cells are the build row's.
  const size_t build_arity = build_->schema().arity();
  const std::vector<Cell>& cells = joined.cells();
  const std::optional<size_t> build_row = build_->Find(
      Mapping(std::vector<Cell>(cells.begin(), cells.begin() + build_arity)));
  if (!build_row) return std::nullopt;
  std::vector<Cell> probe_cells;
  probe_cells.reserve(probe_schema_.arity());
  size_t next_shared = 0;
  size_t next_private = build_arity;
  for (size_t j = 0; j < probe_schema_.arity(); ++j) {
    if (next_shared < shared_.size() && shared_[next_shared].second == j) {
      probe_cells.push_back(cells[shared_[next_shared++].first]);
    } else {
      probe_cells.push_back(cells[next_private++]);
    }
  }
  const Mapping probe(std::move(probe_cells));
  if (!probe_index->has_value()) {
    probe_index->emplace();
    for (size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].IsGround()) (*probe_index)->Insert(rows[r].Hash(), r);
    }
  }
  const std::optional<size_t> probe_row =
      (*probe_index)->Find(rows, probe, probe.Hash());
  if (!probe_row) return std::nullopt;
  return Candidate{static_cast<uint32_t>(*build_row), 0,
                   static_cast<uint32_t>(*probe_row)};
}

namespace {

// The positions a projection keeps, in output order, and whether each
// input position is one of them.
struct Projection {
  std::vector<size_t> keep;
  std::vector<bool> kept;

  static Result<Projection> Of(const Schema& schema,
                               const std::vector<std::string>& names) {
    Projection p;
    HYP_ASSIGN_OR_RETURN(p.keep, schema.PositionsOf(names));
    p.kept.assign(schema.arity(), false);
    for (size_t pos : p.keep) p.kept[pos] = true;
    return p;
  }
};

// State for exact projection of one row: classes that need materialization
// are expanded value-by-value.
struct ClassPlan {
  std::vector<size_t> kept_positions;   // positions of the class we keep
  std::vector<Value> values;            // nonempty => materialize
  std::set<Value> exclusions;           // class-combined exclusion set
};

template <typename Emit>
Status ExpandRow(const Mapping& row, const std::vector<size_t>& keep,
                 const std::vector<ClassPlan>& plans, size_t plan_idx,
                 std::vector<std::optional<Value>>* chosen, Emit& emit) {
  if (plan_idx == plans.size()) {
    // Emit: kept constants pass through; variable cells take either the
    // chosen materialized value or a class variable with merged exclusions.
    std::unordered_map<VarId, VarId> out_vars;
    std::unordered_map<VarId, size_t> class_of_var;
    for (size_t ci = 0; ci < plans.size(); ++ci) {
      for (size_t p : plans[ci].kept_positions) {
        class_of_var[row.cell(p).var()] = ci;
      }
    }
    std::vector<Cell> cells;
    cells.reserve(keep.size());
    for (size_t p : keep) {
      const Cell& c = row.cell(p);
      if (c.is_constant()) {
        cells.push_back(c);
        continue;
      }
      size_t ci = class_of_var.at(c.var());
      if ((*chosen)[ci]) {
        cells.push_back(Cell::Constant(*(*chosen)[ci]));
      } else {
        auto [it, inserted] = out_vars.emplace(
            c.var(), static_cast<VarId>(out_vars.size()));
        (void)inserted;
        cells.push_back(Cell::Variable(it->second, plans[ci].exclusions));
      }
    }
    return emit(Mapping(std::move(cells)));
  }
  const ClassPlan& plan = plans[plan_idx];
  if (plan.values.empty()) {
    (*chosen)[plan_idx] = std::nullopt;
    return ExpandRow(row, keep, plans, plan_idx + 1, chosen, emit);
  }
  for (const Value& v : plan.values) {
    (*chosen)[plan_idx] = v;
    HYP_RETURN_IF_ERROR(
        ExpandRow(row, keep, plans, plan_idx + 1, chosen, emit));
  }
  return Status::OK();
}

// Projects `row`, a row over `schema`, exactly as ProjectOnto does,
// handing each resulting row to `emit`: variable classes spanning kept
// and dropped positions keep their accumulated exclusions, and classes
// restricted by finite domains on dropped positions are materialized.
// Fails when a class would materialize past `materialize_limit` values,
// or when `emit` fails.
template <typename Emit>
Status ProjectRow(const Mapping& row, const Schema& schema,
                  const Projection& projection, size_t materialize_limit,
                  Emit& emit) {
  std::vector<ClassPlan> plans;
  for (const auto& [var, positions] : row.VariableClasses()) {
    (void)var;
    ClassPlan plan;
    std::vector<const Domain*> domains;
    bool dropped_finite = false;
    for (size_t p : positions) {
      domains.push_back(schema.attr(p).domain().get());
      const auto& ex = row.cell(p).exclusions();
      plan.exclusions.insert(ex.begin(), ex.end());
      if (projection.kept[p]) {
        plan.kept_positions.push_back(p);
      } else if (schema.attr(p).domain()->is_finite()) {
        dropped_finite = true;
      }
    }
    if (plan.kept_positions.empty()) {
      // Class disappears: rows are satisfiable on insert, so the class
      // has a value; nothing to do.
      continue;
    }
    if (dropped_finite) {
      // Enumerate the admissible values of the class (finite because some
      // occurrence domain is finite).
      const Domain* finite = nullptr;
      for (const Domain* d : domains) {
        if (d->is_finite() && (finite == nullptr || d->size() < finite->size())) {
          finite = d;
        }
      }
      assert(finite != nullptr);
      for (const Value& v : finite->values()) {
        if (plan.exclusions.count(v)) continue;
        bool in_all = true;
        for (const Domain* d : domains) {
          if (!d->Contains(v)) {
            in_all = false;
            break;
          }
        }
        if (in_all) plan.values.push_back(v);
      }
      if (plan.values.size() > materialize_limit) {
        return Status::InvalidArgument(
            "ProjectOnto: class materialization exceeds limit");
      }
      // A class that admits no value makes the row empty.
      if (plan.values.empty()) return Status::OK();
    }
    plans.push_back(std::move(plan));
  }
  std::vector<std::optional<Value>> chosen(plans.size());
  return ExpandRow(row, projection.keep, plans, 0, &chosen, emit);
}

}  // namespace

Result<size_t> JoinIndex::JoinProject(
    const Schema& probe_schema, std::span<const Mapping> rows,
    const std::vector<std::string>& keep_names, const ComposeOptions& opts,
    std::optional<FreeTable>* emitted, std::vector<Mapping>* fresh) const {
  HYP_RETURN_IF_ERROR(CheckProbeSchema(probe_schema));
  HYP_ASSIGN_OR_RETURN(const Projection projection,
                       Projection::Of(out_schema_, keep_names));
  // A kept cell of a ground pair is cell `src` of build row ++ probe row.
  const size_t build_arity = build_->schema().arity();
  std::vector<size_t> kept_src;
  kept_src.reserve(projection.keep.size());
  for (size_t p : projection.keep) {
    kept_src.push_back(p < build_arity
                           ? p
                           : build_arity + probe_private_[p - build_arity]);
  }
  std::vector<bool> ground_probe(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ground_probe[r] = rows[r].IsGround();
  }

  // ProjectOnto's table would hold the distinct projected rows of this
  // batch: the rows `emitted` gains, and those it already held that the
  // batch projects again (`rehit`, positions, possibly repeated).  Its
  // row limit is checked before each projected row, as ProjectOnto does;
  // the repeats are only removed when the bound could bite.
  const size_t held_before = *emitted ? (*emitted)->size() : 0;
  std::vector<size_t> rehit;
  auto projection_full = [&] {
    const size_t gained = (*emitted)->size() - held_before;
    if (gained + rehit.size() < opts.max_result_rows) return false;
    std::sort(rehit.begin(), rehit.end());
    rehit.erase(std::unique(rehit.begin(), rehit.end()), rehit.end());
    return gained + rehit.size() >= opts.max_result_rows;
  };
  auto emit = [&](Mapping row) -> Status {
    if (projection_full()) return ProjectionTooLarge();
    const std::optional<FreeTable::Slot> slot =
        (*emitted)->Insert(std::move(row));
    if (!slot) return Status::OK();
    if (slot->inserted) {
      fresh->push_back((*emitted)->rows().back());
    } else if (slot->pos < held_before) {
      rehit.push_back(slot->pos);
    }
    return Status::OK();
  };

  // Distinct pairs of ground rows join to distinct rows, so they are
  // counted, not deduplicated.  The other pairs' joined rows are
  // deduplicated in `unified`; one of them that is ground may also be the
  // row of a pair of ground rows, and whichever of the two comes first
  // counts it (`claimed` holds the ground pairs that came second).
  size_t joined = 0;
  std::optional<FreeTable> unified;
  std::unordered_set<uint64_t> claimed;
  std::optional<RowIndex> probe_index;
  auto pair_id = [](const Candidate& c) {
    return uint64_t{c.build} << 32 | c.probe;
  };
  // Join's failure wins over a projection's, which ProjectOnto would
  // only have met after the whole join succeeded.
  Status projection_error;
  for (const Candidate& c : Candidates(rows)) {
    const Mapping& a = build_->rows()[c.build];
    const Mapping& b = rows[c.probe];
    const Mapping* unified_row = nullptr;
    if (ground_build_[c.build] && ground_probe[c.probe]) {
      if (!claimed.empty() && claimed.erase(pair_id(c)) > 0) continue;
    } else {
      std::optional<Mapping> pair = JoinPair(a, b);
      if (!pair) continue;
      if (!unified) unified.emplace(out_schema_);
      if (!unified->AddRow(std::move(*pair))) continue;
      unified_row = &unified->rows().back();
      if (unified_row->IsGround()) {
        if (auto twin = GroundPairOf(*unified_row, rows, &probe_index)) {
          if (*twin < c) continue;
          claimed.insert(pair_id(*twin));
        }
      }
    }
    if (++joined > opts.max_result_rows) return JoinTooLarge();
    if (projection.keep.empty() || !projection_error.ok()) continue;
    if (!*emitted) emitted->emplace(out_schema_.Project(projection.keep));
    if (unified_row == nullptr) {
      std::vector<Cell> cells;
      cells.reserve(kept_src.size());
      for (size_t src : kept_src) {
        cells.push_back(src < build_arity ? a.cell(src)
                                          : b.cell(src - build_arity));
      }
      projection_error = emit(Mapping(std::move(cells)));
    } else {
      projection_error = ProjectRow(*unified_row, out_schema_, projection,
                                    opts.materialize_limit, emit);
    }
  }
  HYP_RETURN_IF_ERROR(projection_error);
  return joined;
}

Result<FreeTable> FreeTable::ProjectOnto(const std::vector<std::string>& names,
                                         const ComposeOptions& opts) const {
  HYP_ASSIGN_OR_RETURN(const Projection projection,
                       Projection::Of(schema_, names));
  FreeTable out(schema_.Project(projection.keep));
  auto emit = [&](Mapping row) -> Status {
    if (out.size() >= opts.max_result_rows) return ProjectionTooLarge();
    out.AddRow(std::move(row));
    return Status::OK();
  };
  for (const Mapping& row : rows_) {
    HYP_RETURN_IF_ERROR(
        ProjectRow(row, schema_, projection, opts.materialize_limit, emit));
  }
  return out;
}

Result<FreeTable> FreeTable::CartesianProduct(
    const Schema& other_schema, std::span<const Mapping> other_rows,
    const ComposeOptions& opts) const {
  HYP_ASSIGN_OR_RETURN(Schema out_schema, schema_.Concat(other_schema));
  FreeTable out(std::move(out_schema));
  for (const Mapping& a : rows_) {
    VarId offset = VarSpan(a);
    for (const Mapping& b : other_rows) {
      Mapping shifted = b.WithVarOffset(offset);
      std::vector<Cell> cells = a.cells();
      cells.insert(cells.end(), shifted.cells().begin(),
                   shifted.cells().end());
      if (out.size() >= opts.max_result_rows) {
        return Status::InvalidArgument(
            "CartesianProduct: result exceeds max rows");
      }
      out.AddRow(Mapping(std::move(cells)));
    }
  }
  return out;
}

Result<std::vector<Tuple>> FreeTable::EnumerateExtension(size_t limit) const {
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> out;
  for (const Mapping& row : rows_) {
    HYP_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                         row.EnumerateExtension(schema_, limit));
    for (Tuple& t : tuples) {
      if (out.size() >= limit) {
        return Status::InvalidArgument("extension exceeds enumeration limit");
      }
      if (seen.insert(t).second) out.push_back(std::move(t));
    }
  }
  return out;
}

std::string FreeTable::ToString() const {
  std::ostringstream os;
  os << "FreeTable " << schema_.ToString() << " [" << rows_.size()
     << " rows]\n";
  size_t shown = 0;
  for (const Mapping& row : rows_) {
    if (shown++ >= 20) {
      os << "  ... (" << rows_.size() - 20 << " more)\n";
      break;
    }
    os << "  " << row.ToString() << "\n";
  }
  return os.str();
}

Result<FreeTable> JoinOrProduct(const FreeTable& a, const FreeTable& b,
                                const ComposeOptions& opts) {
  if (a.schema().ToSet().Overlaps(b.schema().ToSet())) {
    return a.NaturalJoin(b, opts);
  }
  return a.CartesianProduct(b, opts);
}

Result<FreeTable> SemiJoinReduce(const FreeTable& table,
                                 const FreeTable& reducer) {
  // Shared positions: (position in table, position in reducer).
  std::vector<std::pair<size_t, size_t>> shared;
  for (size_t i = 0; i < table.schema().arity(); ++i) {
    auto j = reducer.schema().IndexOf(table.schema().attr(i).name());
    if (j) shared.emplace_back(i, *j);
  }
  if (shared.empty()) {
    return Status::InvalidArgument(
        "SemiJoinReduce: schemas share no attributes");
  }

  // Whether rows a (of table) and b (of reducer) admit a common value
  // assignment on the shared attributes.
  auto unifiable = [&](const Mapping& a, const Mapping& b) {
    Unifier u;
    return UnifyShared(a, table.schema(), b, reducer.schema(), shared,
                       VarSpan(a), &u);
  };

  // Hash index of the reducer's ground shared projections.
  std::unordered_set<Tuple, TupleHash> ground_keys;
  std::vector<const Mapping*> variable_rows;
  Tuple key;
  for (const Mapping& b : reducer.rows()) {
    if (GroundKey<1>(b, shared, &key)) {
      ground_keys.insert(key);
    } else {
      variable_rows.push_back(&b);
    }
  }

  FreeTable out(table.schema());
  for (const Mapping& a : table.rows()) {
    const bool ground = GroundKey<0>(a, shared, &key);
    bool keep = false;
    if (ground) {
      keep = ground_keys.count(key) > 0;
      if (!keep) {
        for (const Mapping* b : variable_rows) {
          if (unifiable(a, *b)) {
            keep = true;
            break;
          }
        }
      }
    } else {
      for (const Mapping& b : reducer.rows()) {
        if (unifiable(a, b)) {
          keep = true;
          break;
        }
      }
    }
    if (keep) out.AddRow(a);
  }
  return out;
}

Result<MappingTable> ComposeConstraints(const MappingConstraint& a,
                                        const MappingConstraint& b,
                                        const ComposeOptions& opts) {
  HYP_ASSIGN_OR_RETURN(
      FreeTable joined,
      a.table().free_table().NaturalJoin(b.table().free_table(), opts));
  // Keep a's X side plus b's Y side (dropping the shared middle).
  std::vector<std::string> keep;
  for (const Attribute& attr : a.x_schema().attrs()) {
    keep.push_back(attr.name());
  }
  for (const Attribute& attr : b.y_schema().attrs()) {
    if (std::find(keep.begin(), keep.end(), attr.name()) == keep.end()) {
      keep.push_back(attr.name());
    }
  }
  HYP_ASSIGN_OR_RETURN(FreeTable projected, joined.ProjectOnto(keep, opts));
  std::vector<std::string> x_names;
  for (const Attribute& attr : a.x_schema().attrs()) {
    x_names.push_back(attr.name());
  }
  std::string name = a.name().empty() || b.name().empty()
                         ? ""
                         : a.name() + "*" + b.name();
  return projected.ToMappingTable(x_names, std::move(name));
}

}  // namespace hyperion
