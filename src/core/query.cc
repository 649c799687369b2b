#include "core/query.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>
#include <sstream>
#include <unordered_set>

#include "obs/metrics.h"

namespace hyperion {

std::string SelectionQuery::ToString() const {
  std::ostringstream os;
  os << "SELECT * RELATED TO (";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i) os << ", ";
    os << attrs[i];
  }
  os << ") IN {";
  size_t shown = 0;
  for (const Tuple& k : keys) {
    if (shown++) os << ", ";
    if (shown > 8) {
      os << "... " << keys.size() - 8 << " more";
      break;
    }
    os << TupleToString(k);
  }
  os << "}";
  return os.str();
}

Result<TranslationOutcome> TranslateQuery(const SelectionQuery& query,
                                          const MappingTable& table,
                                          const QueryTranslationOptions& opts) {
  // The query's attributes must name exactly the table's X side.
  HYP_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                       table.x_schema().PositionsOf(query.attrs));
  if (query.attrs.size() != table.x_arity()) {
    return Status::InvalidArgument(
        "query attributes do not cover the table's X side " +
        table.x_schema().ToString());
  }
  // positions[i] = where query attr i sits in the table's X schema;
  // invert to reorder incoming keys into table order.
  std::vector<size_t> into_table(positions.size());
  for (size_t i = 0; i < positions.size(); ++i) {
    into_table[positions[i]] = i;
  }

  if constexpr (obs::kMetricsEnabled) {
    obs::MetricRegistry& reg = obs::MetricRegistry::Default();
    reg.GetCounter("query.translations")->Add(1);
    reg.GetCounter("query.keys_in")->Add(query.keys.size());
  }
  TranslationOutcome out;
  for (const Attribute& a : table.y_schema().attrs()) {
    out.query.attrs.push_back(a.name());
  }
  std::unordered_set<Tuple, TupleHash> seen_keys;
  std::unordered_set<Tuple, TupleHash> seen_out;
  for (const Tuple& raw_key : query.keys) {
    if (raw_key.size() != query.attrs.size()) {
      return Status::InvalidArgument("key arity does not match attributes");
    }
    Tuple key = ProjectTuple(raw_key, into_table);
    if (!seen_keys.insert(key).second) continue;
    auto image = table.YmGround(key, opts.max_keys);
    if (!image.ok()) {
      // Infinite (or over-limit) image: the id maps to anything — record
      // the incompleteness and move on.
      out.complete = false;
      continue;
    }
    if (image.value().empty()) {
      out.untranslatable.push_back(raw_key);
      continue;
    }
    for (Tuple& y : image.value()) {
      if (out.query.keys.size() >= opts.max_keys) {
        return Status::InvalidArgument(
            "translated key set exceeds max_keys");
      }
      if (seen_out.insert(y).second) out.query.keys.push_back(std::move(y));
    }
  }
  if constexpr (obs::kMetricsEnabled) {
    obs::MetricRegistry& reg = obs::MetricRegistry::Default();
    reg.GetCounter("query.keys_out")->Add(out.query.keys.size());
    reg.GetCounter("query.untranslatable")->Add(out.untranslatable.size());
  }
  return out;
}

Result<TranslationOutcome> TranslateAlongPath(
    const SelectionQuery& query, const ConstraintPath& path,
    const QueryTranslationOptions& opts) {
  TranslationOutcome acc;
  acc.query = query;
  for (size_t h = 0; h < path.num_hops(); ++h) {
    // Find the hop table whose X side matches the current attributes.
    const MappingTable* applicable = nullptr;
    for (const MappingConstraint& c : path.hop_constraints(h)) {
      auto positions = c.x_schema().PositionsOf(acc.query.attrs);
      if (positions.ok() && acc.query.attrs.size() == c.table().x_arity()) {
        if (applicable != nullptr) {
          return Status::InvalidArgument(
              "hop " + std::to_string(h) +
              " has several tables matching the query attributes; "
              "translate hop by hop explicitly");
        }
        applicable = &c.table();
      }
    }
    if (applicable == nullptr) {
      return Status::NotFound("hop " + std::to_string(h) +
                              " has no mapping table over the query "
                              "attributes");
    }
    HYP_ASSIGN_OR_RETURN(TranslationOutcome step,
                         TranslateQuery(acc.query, *applicable, opts));
    step.complete = step.complete && acc.complete;
    // Untranslatable keys at later hops are reported in that hop's id
    // space; accumulate them as-is (callers mostly count them).
    step.untranslatable.insert(step.untranslatable.end(),
                               acc.untranslatable.begin(),
                               acc.untranslatable.end());
    acc = std::move(step);
  }
  return acc;
}

namespace {

// Binds the X cells of `row` against ground `x`; returns the residual
// Y-side mapping (bound variables substituted) or nullopt on mismatch.
std::optional<Mapping> BindXCells(const Mapping& row, size_t x_arity,
                                  const Tuple& x) {
  std::map<VarId, Value> binding;
  for (size_t i = 0; i < x_arity; ++i) {
    const Cell& c = row.cell(i);
    if (c.is_constant()) {
      if (!(c.value() == x[i])) return std::nullopt;
      continue;
    }
    if (!c.AdmitsValue(x[i])) return std::nullopt;
    auto [it, inserted] = binding.emplace(c.var(), x[i]);
    if (!inserted && !(it->second == x[i])) return std::nullopt;
  }
  Mapping::Builder y_cells(row.arity() - x_arity);
  for (size_t i = x_arity; i < row.arity(); ++i) {
    const Cell& c = row.cell(i);
    if (c.is_constant()) {
      y_cells.Append(c);
      continue;
    }
    auto it = binding.find(c.var());
    if (it != binding.end()) {
      if (!c.AdmitsValue(it->second)) return std::nullopt;
      y_cells.Append(Cell::Constant(it->second));
    } else {
      y_cells.Append(c);
    }
  }
  return std::move(y_cells).Build();
}

}  // namespace

Result<Relation> JoinViaMapping(const Relation& left,
                                const MappingTable& table,
                                const Relation& right) {
  std::vector<std::string> x_names;
  for (const Attribute& a : table.x_schema().attrs()) {
    x_names.push_back(a.name());
  }
  std::vector<std::string> y_names;
  for (const Attribute& a : table.y_schema().attrs()) {
    y_names.push_back(a.name());
  }
  HYP_ASSIGN_OR_RETURN(std::vector<size_t> left_x,
                       left.schema().PositionsOf(x_names));
  HYP_ASSIGN_OR_RETURN(std::vector<size_t> right_y,
                       right.schema().PositionsOf(y_names));
  HYP_ASSIGN_OR_RETURN(Schema out_schema,
                       left.schema().Concat(right.schema()));
  Relation out(std::move(out_schema));

  // Index both sides by their mapped projections.
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> by_x;
  for (const Tuple& t : left.tuples()) {
    by_x[ProjectTuple(t, left_x)].push_back(&t);
  }
  std::unordered_map<Tuple, std::vector<const Tuple*>, TupleHash> by_y;
  for (const Tuple& t : right.tuples()) {
    by_y[ProjectTuple(t, right_y)].push_back(&t);
  }

  auto emit = [&out](const Tuple& l, const Tuple& r) {
    Tuple combined = l;
    combined.insert(combined.end(), r.begin(), r.end());
    out.AddUnchecked(std::move(combined));
  };

  for (const Mapping& row : table.rows()) {
    bool ground_x = true;
    for (size_t i = 0; i < table.x_arity(); ++i) {
      if (row.cell(i).is_variable()) {
        ground_x = false;
        break;
      }
    }
    if (ground_x && row.IsGround()) {
      // Pure lookup on both sides.
      Tuple x(table.x_arity());
      for (size_t i = 0; i < table.x_arity(); ++i) x[i] = row.cell(i).value();
      Tuple y(row.arity() - table.x_arity());
      for (size_t i = table.x_arity(); i < row.arity(); ++i) {
        y[i - table.x_arity()] = row.cell(i).value();
      }
      auto lit = by_x.find(x);
      auto rit = by_y.find(y);
      if (lit == by_x.end() || rit == by_y.end()) continue;
      for (const Tuple* l : lit->second) {
        for (const Tuple* r : rit->second) emit(*l, *r);
      }
      continue;
    }
    // Variable row: bind per distinct left X value; if the residual Y part
    // grounds out, look it up, otherwise scan the right side's keys.
    for (const auto& [x, lefts] : by_x) {
      auto residual = BindXCells(row, table.x_arity(), x);
      if (!residual) continue;
      if (residual->IsGround()) {
        Tuple y(residual->arity());
        for (size_t i = 0; i < residual->arity(); ++i) {
          y[i] = residual->cell(i).value();
        }
        auto rit = by_y.find(y);
        if (rit == by_y.end()) continue;
        for (const Tuple* l : lefts) {
          for (const Tuple* r : rit->second) emit(*l, *r);
        }
      } else {
        for (const auto& [y, rights] : by_y) {
          if (!residual->MatchesGround(y, table.y_schema())) continue;
          for (const Tuple* l : lefts) {
            for (const Tuple* r : rights) emit(*l, *r);
          }
        }
      }
    }
  }
  return out;
}

Result<Relation> EvaluateQuery(const SelectionQuery& query,
                               const Relation& relation) {
  HYP_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                       relation.schema().PositionsOf(query.attrs));
  std::unordered_set<Tuple, TupleHash> keys(query.keys.begin(),
                                            query.keys.end());
  Relation out(relation.schema());
  for (const Tuple& t : relation.tuples()) {
    if (keys.count(ProjectTuple(t, positions))) out.AddUnchecked(t);
  }
  return out;
}

}  // namespace hyperion
