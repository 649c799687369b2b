#include "core/semantics.h"

#include <sstream>
#include <unordered_set>

#include "common/string_util.h"

namespace hyperion {

const char* WorldSemanticsToString(WorldSemantics s) {
  switch (s) {
    case WorldSemantics::kOpenOpen:
      return "open-open";
    case WorldSemantics::kOpenClosed:
      return "open-closed";
    case WorldSemantics::kClosedOpen:
      return "closed-open";
    case WorldSemantics::kClosedClosed:
      return "closed-closed";
  }
  return "unknown";
}

Result<WorldSemantics> WorldSemanticsFromString(std::string_view name) {
  for (WorldSemantics s :
       {WorldSemantics::kOpenOpen, WorldSemantics::kOpenClosed,
        WorldSemantics::kClosedOpen, WorldSemantics::kClosedClosed}) {
    if (name == WorldSemanticsToString(s)) return s;
  }
  return Status::InvalidArgument("unknown semantics '" + std::string(name) +
                                 "' (expected open-open, open-closed, "
                                 "closed-open or closed-closed)");
}

Result<MappingTable> ParseAndNormalize(std::string_view text) {
  // Pull out an optional "semantics:" header line; the core table parser
  // does not know about it.
  WorldSemantics semantics = WorldSemantics::kClosedClosed;
  std::ostringstream rest;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    std::string_view line = TrimWhitespace(raw_line);
    if (StartsWith(line, "semantics:")) {
      HYP_ASSIGN_OR_RETURN(
          semantics,
          WorldSemanticsFromString(TrimWhitespace(line.substr(10))));
      continue;
    }
    rest << raw_line << "\n";
  }
  HYP_ASSIGN_OR_RETURN(MappingTable table, MappingTable::Parse(rest.str()));
  return TranslateToCc(table, semantics);
}

namespace {

// Distinct ground X-projections of the table's rows.  Fails when an X cell
// is a variable (the "present X-values" would not be a finite set).
Result<std::vector<Tuple>> PresentXValues(const MappingTable& table) {
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> out;
  for (const Mapping& row : table.rows()) {
    Tuple x(table.x_arity());
    for (size_t i = 0; i < table.x_arity(); ++i) {
      if (row.cell(i).is_variable()) {
        return Status::InvalidArgument(
            "semantics translation requires a ground X side; row " +
            row.ToString() + " has a variable X cell");
      }
      x[i] = row.cell(i).value();
    }
    if (seen.insert(x).second) out.push_back(std::move(x));
  }
  return out;
}

// A mapping (x ++ fresh distinct Y variables): "x maps to any Y-value".
Mapping XWithFreeY(const Tuple& x, size_t y_arity, VarId first_var = 0) {
  Mapping::Builder cells(x.size() + y_arity);
  for (const Value& v : x) cells.Append(Cell::Constant(v));
  for (size_t i = 0; i < y_arity; ++i) {
    cells.Append(Cell::Variable(first_var + static_cast<VarId>(i)));
  }
  return std::move(cells).Build();
}

}  // namespace

std::vector<Mapping> ComplementOfTupleSet(const std::vector<Tuple>& tuples,
                                          const Schema& schema) {
  size_t arity = schema.arity();
  if (tuples.empty()) {
    // Complement of the empty set: everything.
    Mapping::Builder cells(arity);
    for (size_t i = 0; i < arity; ++i) {
      cells.Append(Cell::Variable(static_cast<VarId>(i)));
    }
    return {std::move(cells).Build()};
  }
  if (arity == 0) return {};  // complement of a nonempty set over ()

  // Split on the first attribute.
  std::set<Value> firsts;
  for (const Tuple& t : tuples) firsts.insert(t[0]);

  std::vector<Mapping> out;
  // Case 1: first coordinate avoids every value of `firsts`; rest is free.
  {
    Mapping::Builder cells(arity);
    cells.Append(Cell::Variable(0, firsts));
    for (size_t i = 1; i < arity; ++i) {
      cells.Append(Cell::Variable(static_cast<VarId>(i)));
    }
    out.push_back(std::move(cells).Build());
  }
  // Case 2: first coordinate equals a ∈ firsts, rest avoids E_a.
  std::vector<size_t> rest_positions;
  for (size_t i = 1; i < arity; ++i) rest_positions.push_back(i);
  Schema rest_schema = schema.Project(rest_positions);
  for (const Value& a : firsts) {
    std::vector<Tuple> rest;
    for (const Tuple& t : tuples) {
      if (t[0] == a) rest.emplace_back(t.begin() + 1, t.end());
    }
    for (const Mapping& sub : ComplementOfTupleSet(rest, rest_schema)) {
      Mapping::Builder cells(arity);
      cells.Append(Cell::Constant(a));
      for (const Cell& c : sub.cells()) cells.Append(c);
      out.push_back(std::move(cells).Build());
    }
  }
  return out;
}

Result<MappingTable> TranslateToCc(const MappingTable& table,
                                   WorldSemantics semantics) {
  if (semantics == WorldSemantics::kClosedClosed) return table;

  HYP_ASSIGN_OR_RETURN(
      MappingTable out,
      MappingTable::Create(table.x_schema(), table.y_schema(), table.name()));
  size_t y_arity = table.y_schema().arity();

  switch (semantics) {
    case WorldSemantics::kClosedClosed:
      break;  // handled above
    case WorldSemantics::kOpenOpen: {
      // Any X with any Y: one row of fresh distinct variables.
      Mapping::Builder cells(table.schema().arity());
      for (size_t i = 0; i < table.schema().arity(); ++i) {
        cells.Append(Cell::Variable(static_cast<VarId>(i)));
      }
      HYP_RETURN_IF_ERROR(out.AddRow(std::move(cells).Build()));
      break;
    }
    case WorldSemantics::kOpenClosed: {
      // Present X-values map anywhere; the table's Y-values are ignored.
      HYP_ASSIGN_OR_RETURN(std::vector<Tuple> present, PresentXValues(table));
      for (const Tuple& x : present) {
        HYP_RETURN_IF_ERROR(out.AddRow(XWithFreeY(x, y_arity)));
      }
      break;
    }
    case WorldSemantics::kClosedOpen: {
      // Indicated rows stay; missing X-values map anywhere.
      HYP_ASSIGN_OR_RETURN(std::vector<Tuple> present, PresentXValues(table));
      for (const Mapping& row : table.rows()) {
        HYP_RETURN_IF_ERROR(out.AddRow(row));
      }
      for (const Mapping& comp :
           ComplementOfTupleSet(present, table.x_schema())) {
        // Append fresh Y variables after the complement's X cells.
        VarId next = 0;
        for (const Cell& c : comp.cells()) {
          if (c.is_variable()) next = std::max(next, c.var() + 1);
        }
        Mapping::Builder cells(comp.arity() + y_arity);
        for (const Cell& c : comp.cells()) cells.Append(c);
        for (size_t i = 0; i < y_arity; ++i) {
          cells.Append(Cell::Variable(next + static_cast<VarId>(i)));
        }
        Mapping m = std::move(cells).Build();
        // Complement rows can be unsatisfiable over finite domains (every
        // domain value already present); those denote nothing — skip.
        if (m.IsSatisfiable(out.schema())) {
          HYP_RETURN_IF_ERROR(out.AddRow(std::move(m)));
        }
      }
      break;
    }
  }
  return out;
}

}  // namespace hyperion
