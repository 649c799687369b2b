#include "core/containment.h"

#include <algorithm>
#include <map>
#include <set>

namespace hyperion {

TableMatcher::TableMatcher(const FreeTable& table) : table_(&table) {
  for (const Mapping& row : table.rows()) {
    if (row.IsGround()) {
      Tuple t(row.arity());
      for (size_t i = 0; i < row.arity(); ++i) t[i] = row.cell(i).value();
      ground_rows_.insert(std::move(t));
    } else {
      variable_rows_.push_back(&row);
    }
  }
}

bool TableMatcher::MatchesGround(const Tuple& t) const {
  if (ground_rows_.count(t)) return true;
  for (const Mapping* row : variable_rows_) {
    if (row->MatchesGround(t, table_->schema())) return true;
  }
  return false;
}

namespace {

// Builds a ground tuple from `row` with each variable class set to its
// chosen candidate value, then asks whether `rhs` matches it.
bool CandidateMatches(
    const Mapping& row,
    const std::vector<std::pair<VarId, std::vector<size_t>>>& classes,
    const std::vector<Value>& choice, const TableMatcher& rhs) {
  Tuple t(row.arity());
  for (size_t i = 0; i < row.arity(); ++i) {
    if (row.cell(i).is_constant()) t[i] = row.cell(i).value();
  }
  for (size_t k = 0; k < classes.size(); ++k) {
    for (size_t p : classes[k].second) t[p] = choice[k];
  }
  return rhs.MatchesGround(t);
}

Result<bool> SearchCounterexample(
    const Mapping& row,
    const std::vector<std::pair<VarId, std::vector<size_t>>>& classes,
    const std::vector<std::vector<Value>>& candidates, size_t class_idx,
    std::vector<Value>* choice, const TableMatcher& rhs, size_t* budget) {
  if (class_idx == classes.size()) {
    if (*budget == 0) {
      return Status::InvalidArgument(
          "containment candidate search exceeded its combination budget");
    }
    --*budget;
    // A combination that rhs does NOT match is a counterexample.
    return !CandidateMatches(row, classes, *choice, rhs);
  }
  for (const Value& v : candidates[class_idx]) {
    (*choice)[class_idx] = v;
    HYP_ASSIGN_OR_RETURN(
        bool found,
        SearchCounterexample(row, classes, candidates, class_idx + 1, choice,
                             rhs, budget));
    if (found) return true;
  }
  return false;
}

}  // namespace

Result<bool> RowContainedInTable(const Mapping& row, const TableMatcher& rhs,
                                 const ContainmentOptions& opts) {
  const Schema& schema = rhs.table().schema();
  if (row.arity() != schema.arity()) {
    return Status::InvalidArgument("RowContainedInTable: arity mismatch");
  }
  if (!row.IsSatisfiable(schema)) return true;  // empty ⊆ anything
  if (row.IsGround()) {
    Tuple t(row.arity());
    for (size_t i = 0; i < row.arity(); ++i) t[i] = row.cell(i).value();
    return rhs.MatchesGround(t);
  }

  // Collect every constant mentioned anywhere (for fresh-value avoidance).
  std::set<Value> all_mentioned;
  auto collect = [&all_mentioned](const Mapping& m) {
    for (const Cell& c : m.cells()) {
      if (c.is_constant()) {
        all_mentioned.insert(c.value());
      } else {
        all_mentioned.insert(c.exclusions().begin(), c.exclusions().end());
      }
    }
  };
  collect(row);
  for (const Mapping& r : rhs.table().rows()) collect(r);

  std::vector<std::pair<VarId, std::vector<size_t>>> classes;
  for (auto& [var, positions] : row.VariableClasses()) {
    classes.emplace_back(var, positions);
  }

  // Candidate values per class.
  std::vector<std::vector<Value>> candidates(classes.size());
  size_t combinations = 1;
  for (size_t k = 0; k < classes.size(); ++k) {
    const auto& positions = classes[k].second;
    std::set<Value> class_exclusions =
        row.CombinedExclusions(classes[k].first);
    std::vector<const Domain*> domains;
    for (size_t p : positions) {
      domains.push_back(schema.attr(p).domain().get());
    }

    const Domain* smallest_finite = nullptr;
    for (const Domain* d : domains) {
      if (d->is_finite() && (smallest_finite == nullptr ||
                             d->size() < smallest_finite->size())) {
        smallest_finite = d;
      }
    }
    std::set<Value> cand;
    if (smallest_finite != nullptr) {
      // Finite class: every admissible domain value is a candidate.
      for (const Value& v : smallest_finite->values()) {
        bool ok = !class_exclusions.count(v);
        for (const Domain* d : domains) ok = ok && d->Contains(v);
        if (ok) cand.insert(v);
      }
    } else {
      // Constants mentioned by rhs at the class's positions.
      for (const Mapping& r : rhs.table().rows()) {
        for (size_t p : positions) {
          const Cell& c = r.cell(p);
          if (c.is_constant()) {
            cand.insert(c.value());
          } else {
            cand.insert(c.exclusions().begin(), c.exclusions().end());
          }
        }
      }
      // Filter by admissibility for this class.
      for (auto it = cand.begin(); it != cand.end();) {
        bool ok = !class_exclusions.count(*it);
        for (const Domain* d : domains) ok = ok && d->Contains(*it);
        it = ok ? std::next(it) : cand.erase(it);
      }
      // One fresh value, distinct from everything mentioned and from other
      // classes' fresh values (salt = class index).
      std::set<Value> avoid = all_mentioned;
      avoid.insert(class_exclusions.begin(), class_exclusions.end());
      auto fresh = Domain::PickInIntersectionOutside(domains, avoid, k);
      if (fresh) cand.insert(*fresh);
    }
    if (cand.empty()) {
      // Class admits no value at all — row is empty (should have been
      // caught by IsSatisfiable, but finite filtering can reveal it).
      return true;
    }
    candidates[k].assign(cand.begin(), cand.end());
    if (combinations > opts.max_combinations / candidates[k].size()) {
      return Status::InvalidArgument(
          "containment search space too large (" +
          std::to_string(combinations) + " x " +
          std::to_string(candidates[k].size()) + " combinations)");
    }
    combinations *= candidates[k].size();
  }

  std::vector<Value> choice(classes.size());
  size_t budget = opts.max_combinations;
  HYP_ASSIGN_OR_RETURN(bool counterexample,
                       SearchCounterexample(row, classes, candidates, 0,
                                            &choice, rhs, &budget));
  return !counterexample;
}

Result<bool> RowContainedInTable(const Mapping& row, const FreeTable& rhs,
                                 const ContainmentOptions& opts) {
  TableMatcher matcher(rhs);
  return RowContainedInTable(row, matcher, opts);
}

Result<bool> ExtensionContained(const FreeTable& lhs, const FreeTable& rhs,
                                const ContainmentOptions& opts) {
  // Align rhs columns to lhs order by attribute name.
  std::vector<std::string> lhs_names;
  for (const Attribute& a : lhs.schema().attrs()) {
    lhs_names.push_back(a.name());
  }
  HYP_ASSIGN_OR_RETURN(std::vector<size_t> rhs_positions,
                       rhs.schema().PositionsOf(lhs_names));
  if (rhs.schema().arity() != lhs.schema().arity()) {
    return Status::InvalidArgument(
        "ExtensionContained: schemas have different attribute sets");
  }
  FreeTable aligned(rhs.schema().Project(rhs_positions));
  for (const Mapping& r : rhs.rows()) aligned.AddRow(r.Project(rhs_positions));
  TableMatcher matcher(aligned);

  for (const Mapping& row : lhs.rows()) {
    HYP_ASSIGN_OR_RETURN(bool contained,
                         RowContainedInTable(row, matcher, opts));
    if (!contained) return false;
  }
  return true;
}

Result<bool> TableContained(const MappingTable& lhs, const MappingTable& rhs,
                            const ContainmentOptions& opts) {
  return ExtensionContained(lhs.free_table(), rhs.free_table(), opts);
}

Result<bool> TablesEquivalent(const MappingTable& lhs,
                              const MappingTable& rhs,
                              const ContainmentOptions& opts) {
  HYP_ASSIGN_OR_RETURN(bool a, TableContained(lhs, rhs, opts));
  if (!a) return false;
  return TableContained(rhs, lhs, opts);
}

Result<FreeTable> RemoveSubsumedRows(const FreeTable& table, size_t max_rows,
                                     const ContainmentOptions& opts) {
  if (table.size() > max_rows) return table;
  const auto& rows = table.rows();
  std::vector<bool> dead(rows.size(), false);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (dead[i]) continue;
    for (size_t j = 0; j < rows.size(); ++j) {
      if (i == j || dead[j]) continue;
      FreeTable single(table.schema());
      single.AddRow(rows[j]);
      HYP_ASSIGN_OR_RETURN(bool sub,
                           RowContainedInTable(rows[i], single, opts));
      if (sub) {
        dead[i] = true;
        break;
      }
    }
  }
  FreeTable out(table.schema());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!dead[i]) out.AddRow(rows[i]);
  }
  return out;
}

}  // namespace hyperion
