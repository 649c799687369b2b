#include "core/curator.h"

#include "core/compose.h"
#include "core/infer.h"
#include "core/mcf.h"

namespace hyperion {

namespace {

// Checks the two tables describe the same mapping (same attribute names,
// same X side) and returns b's rows reprojected into a's column order.
Result<std::vector<Mapping>> AlignRows(const MappingTable& a,
                                       const MappingTable& b) {
  std::vector<std::string> a_names;
  for (const Attribute& attr : a.schema().attrs()) {
    a_names.push_back(attr.name());
  }
  HYP_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                       b.schema().PositionsOf(a_names));
  if (a.schema().arity() != b.schema().arity()) {
    return Status::InvalidArgument("tables have different attribute sets");
  }
  if (!(a.x_schema().ToSet() == b.x_schema().ToSet())) {
    return Status::InvalidArgument("tables have different X sides");
  }
  std::vector<Mapping> out;
  out.reserve(b.size());
  for (const Mapping& row : b.rows()) {
    out.push_back(row.Project(positions));
  }
  return out;
}

}  // namespace

Result<MappingTable> MergeUnion(const MappingTable& a, const MappingTable& b,
                                std::string name) {
  HYP_ASSIGN_OR_RETURN(std::vector<Mapping> b_rows, AlignRows(a, b));
  HYP_ASSIGN_OR_RETURN(
      MappingTable out,
      MappingTable::Create(a.x_schema(), a.y_schema(), std::move(name)));
  for (const Mapping& row : a.rows()) HYP_RETURN_IF_ERROR(out.AddRow(row));
  for (const Mapping& row : b_rows) HYP_RETURN_IF_ERROR(out.AddRow(row));
  return out;
}

Result<MappingTable> MergeIntersect(const MappingTable& a,
                                    const MappingTable& b, std::string name,
                                    const ComposeOptions& opts) {
  HYP_ASSIGN_OR_RETURN(std::vector<Mapping> b_rows, AlignRows(a, b));
  FreeTable fb(a.schema());
  for (const Mapping& row : b_rows) fb.AddRow(row);
  // Join over every column: exactly the intersection of the extensions.
  HYP_ASSIGN_OR_RETURN(FreeTable joined,
                       a.free_table().NaturalJoin(fb, opts));
  std::vector<std::string> x_names;
  for (const Attribute& attr : a.x_schema().attrs()) {
    x_names.push_back(attr.name());
  }
  return joined.ToMappingTable(x_names, std::move(name));
}

Result<TableDiff> DiffTables(const MappingTable& a, const MappingTable& b,
                             const ContainmentOptions& opts) {
  TableDiff diff;
  HYP_ASSIGN_OR_RETURN(diff.only_in_a, RowsNotContained(a, b, opts));
  HYP_ASSIGN_OR_RETURN(diff.only_in_b, RowsNotContained(b, a, opts));
  return diff;
}

Result<std::vector<Mapping>> DeadRows(
    const std::vector<MappingConstraint>& constraints, size_t target,
    const ConsistencyOptions& opts) {
  if (target >= constraints.size()) {
    return Status::InvalidArgument("target constraint index out of range");
  }
  const MappingTable& table = constraints[target].table();
  std::vector<Mapping> dead;
  for (const Mapping& row : table.rows()) {
    // Replace the target table by the single row and ask whether any
    // exchanged tuple could use it.
    HYP_ASSIGN_OR_RETURN(
        MappingTable single,
        MappingTable::Create(table.x_schema(), table.y_schema(), "row"));
    HYP_RETURN_IF_ERROR(single.AddRow(row));
    std::vector<MappingConstraint> replaced = constraints;
    replaced[target] = MappingConstraint(std::move(single));
    HYP_ASSIGN_OR_RETURN(bool usable, ConjunctionConsistent(replaced, opts));
    if (!usable) dead.push_back(row);
  }
  return dead;
}

Result<MappingTable> MaterializeFormula(const Mcf& formula, std::string name,
                                        const ComposeOptions& opts) {
  switch (formula.kind()) {
    case Mcf::Kind::kConstraint:
      return formula.constraint().table();
    case Mcf::Kind::kNot:
      return Status::InvalidArgument(
          "negation cannot be materialized into a single mapping table "
          "(Example 10); evaluate the formula directly instead");
    case Mcf::Kind::kAnd: {
      HYP_ASSIGN_OR_RETURN(MappingTable left,
                           MaterializeFormula(*formula.left(), name, opts));
      HYP_ASSIGN_OR_RETURN(MappingTable right,
                           MaterializeFormula(*formula.right(), name, opts));
      return MergeIntersect(left, right, std::move(name), opts);
    }
    case Mcf::Kind::kOr: {
      HYP_ASSIGN_OR_RETURN(MappingTable left,
                           MaterializeFormula(*formula.left(), name, opts));
      HYP_ASSIGN_OR_RETURN(MappingTable right,
                           MaterializeFormula(*formula.right(), name, opts));
      return MergeUnion(left, right, std::move(name));
    }
  }
  return Status::Internal("corrupt MCF node");
}

Result<MappingTable> AugmentFromPathCovers(
    const MappingTable& direct, const std::vector<MappingTable>& covers) {
  MappingTable out = direct;
  out.set_name(direct.name().empty() ? "augmented"
                                     : direct.name() + "+paths");
  for (const MappingTable& cover : covers) {
    HYP_ASSIGN_OR_RETURN(out, MergeUnion(out, cover, out.name()));
  }
  return out;
}

}  // namespace hyperion
