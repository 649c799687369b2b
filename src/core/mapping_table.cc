// Text format (Serialize/Parse):
//
//   # comment lines and blank lines are ignored
//   name: m1
//   x: GDB_id:string, AreaCode:int
//   y: SwissProt_id:string
//   GDB:120231|P21359
//   ?v-{GDB:120231,GDB:120232}|?w
//
// Cells are '|'-separated.  A cell starting with '?' is a variable
// "?ident" optionally followed by "-{v1,v2,...}".  Everything else is a
// constant, parsed according to the attribute type.  The characters
// , { } | \ and newline are backslash-escaped inside constants and
// exclusion values.  Attribute type is "string" or "int"; parsed tables
// get the corresponding unbounded domain.

#include "core/mapping_table.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/string_util.h"

namespace hyperion {

Result<MappingTable> MappingTable::Create(Schema x_schema, Schema y_schema,
                                          std::string name) {
  if (x_schema.arity() == 0 || y_schema.arity() == 0) {
    return Status::InvalidArgument(
        "mapping table needs nonempty X and Y attribute sets");
  }
  HYP_ASSIGN_OR_RETURN(Schema combined, x_schema.Concat(y_schema));
  MappingTable t;
  t.name_ = std::move(name);
  t.x_schema_ = std::move(x_schema);
  t.y_schema_ = std::move(y_schema);
  t.table_ = FreeTable(std::move(combined));
  return t;
}

Status MappingTable::AddRow(Mapping row) {
  if (row.arity() != schema().arity()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.arity()) + " != table arity " +
        std::to_string(schema().arity()));
  }
  for (size_t i = 0; i < row.arity(); ++i) {
    const Cell& c = row.cell(i);
    const DomainPtr& dom = schema().attr(i).domain();
    if (c.is_constant()) {
      if (!dom->Contains(c.value())) {
        return Status::InvalidArgument(
            "constant " + c.value().ToString() + " outside domain of '" +
            schema().attr(i).name() + "'");
      }
    } else {
      for (const Value& v : c.exclusions()) {
        if (v.type() != dom->value_type()) {
          return Status::InvalidArgument(
              "exclusion value " + v.ToString() +
              " has wrong type for attribute '" + schema().attr(i).name() +
              "'");
        }
      }
    }
  }
  if (!row.IsSatisfiable(schema())) {
    return Status::InvalidArgument("row " + row.ToString() +
                                   " is unsatisfiable over its domains");
  }
  // False for a duplicate, which is not an error.
  if (table_.AddRow(std::move(row))) IndexRow(table_.size() - 1);
  return Status::OK();
}

Status MappingTable::AddPair(const Tuple& x, const Tuple& y) {
  if (x.size() != x_schema_.arity() || y.size() != y_schema_.arity()) {
    return Status::InvalidArgument("AddPair: tuple arities do not match");
  }
  Tuple combined = x;
  combined.insert(combined.end(), y.begin(), y.end());
  return AddRow(Mapping::FromTuple(combined));
}

bool MappingTable::ContainsRow(const Mapping& row) const {
  return table_.ContainsRow(row);
}

void MappingTable::IndexRow(size_t row_idx) {
  const Mapping& row = rows()[row_idx];
  bool ground_x = true;
  Tuple x(x_arity());
  for (size_t i = 0; i < x_arity(); ++i) {
    if (row.cell(i).is_variable()) {
      ground_x = false;
      break;
    }
    x[i] = row.cell(i).value();
  }
  if (ground_x) {
    ground_x_index_[std::move(x)].push_back(row_idx);
  } else {
    variable_x_rows_.push_back(row_idx);
  }
}

bool MappingTable::SatisfiesTuple(const Tuple& t) const {
  if (t.size() != schema().arity()) return false;
  Tuple x(t.begin(), t.begin() + static_cast<ptrdiff_t>(x_arity()));
  auto it = ground_x_index_.find(x);
  if (it != ground_x_index_.end()) {
    for (size_t idx : it->second) {
      if (rows()[idx].MatchesGround(t, schema())) return true;
    }
  }
  for (size_t idx : variable_x_rows_) {
    if (rows()[idx].MatchesGround(t, schema())) return true;
  }
  return false;
}

std::optional<Mapping> MappingTable::BindX(const Mapping& row,
                                           const Tuple& x) const {
  std::unordered_map<VarId, Value> binding;
  for (size_t i = 0; i < x_arity(); ++i) {
    const Cell& c = row.cell(i);
    if (c.is_constant()) {
      if (!(c.value() == x[i])) return std::nullopt;
      continue;
    }
    if (!c.AdmitsValue(x[i]) || !schema().attr(i).domain()->Contains(x[i])) {
      return std::nullopt;
    }
    auto [it, inserted] = binding.emplace(c.var(), x[i]);
    if (!inserted && !(it->second == x[i])) return std::nullopt;
  }
  Mapping::Builder y_cells(y_schema_.arity());
  for (size_t i = x_arity(); i < schema().arity(); ++i) {
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

Result<std::vector<Tuple>> MappingTable::YmGround(const Tuple& x,
                                                  size_t limit) const {
  if (x.size() != x_arity()) {
    return Status::InvalidArgument("YmGround: X-tuple arity mismatch");
  }
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> out;
  auto consider = [&](size_t row_idx) -> Status {
    auto y_mapping = BindX(rows()[row_idx], x);
    if (!y_mapping) return Status::OK();
    HYP_ASSIGN_OR_RETURN(std::vector<Tuple> ys,
                         y_mapping->EnumerateExtension(y_schema_, limit));
    for (Tuple& y : ys) {
      if (seen.insert(y).second) out.push_back(std::move(y));
    }
    return Status::OK();
  };
  auto it = ground_x_index_.find(x);
  if (it != ground_x_index_.end()) {
    for (size_t idx : it->second) HYP_RETURN_IF_ERROR(consider(idx));
  }
  for (size_t idx : variable_x_rows_) HYP_RETURN_IF_ERROR(consider(idx));
  return out;
}

bool MappingTable::XValueHasImage(const Tuple& x) const {
  if (x.size() != x_arity()) return false;
  auto check = [&](size_t row_idx) {
    auto y_mapping = BindX(rows()[row_idx], x);
    return y_mapping && y_mapping->IsSatisfiable(y_schema_);
  };
  auto it = ground_x_index_.find(x);
  if (it != ground_x_index_.end()) {
    for (size_t idx : it->second) {
      if (check(idx)) return true;
    }
  }
  for (size_t idx : variable_x_rows_) {
    if (check(idx)) return true;
  }
  return false;
}

Result<std::vector<Tuple>> MappingTable::EnumerateExtension(
    size_t limit) const {
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> out;
  for (const Mapping& row : rows()) {
    HYP_ASSIGN_OR_RETURN(std::vector<Tuple> tuples,
                         row.EnumerateExtension(schema(), limit));
    for (Tuple& t : tuples) {
      if (out.size() >= limit) {
        return Status::InvalidArgument("extension exceeds enumeration limit");
      }
      if (seen.insert(t).second) out.push_back(std::move(t));
    }
  }
  return out;
}

bool MappingTable::IsSatisfiable() const {
  for (const Mapping& row : rows()) {
    if (row.IsSatisfiable(schema())) return true;
  }
  return false;
}

Result<Relation> MappingTable::FilterRelation(const Relation& combined) const {
  // Locate our X and Y attributes inside the combined schema.
  std::vector<std::string> names;
  for (const Attribute& a : schema().attrs()) names.push_back(a.name());
  HYP_ASSIGN_OR_RETURN(std::vector<size_t> positions,
                       combined.schema().PositionsOf(names));
  Relation out(combined.schema());
  for (const Tuple& t : combined.tuples()) {
    if (SatisfiesTuple(ProjectTuple(t, positions))) out.AddUnchecked(t);
  }
  return out;
}

namespace {

std::string SerializeSchemaLine(const Schema& s) {
  std::vector<std::string> parts;
  for (const Attribute& a : s.attrs()) {
    parts.push_back(a.name() + ":" +
                    ValueTypeToString(a.domain()->value_type()));
  }
  return JoinStrings(parts, ", ");
}

std::string SerializeValue(const Value& v) { return EscapeCell(v.ToString()); }

std::string SerializeCell(const Cell& c) {
  if (c.is_constant()) {
    std::string s = SerializeValue(c.value());
    if (!s.empty() && s[0] == '?') s = "\\" + s;
    return s;
  }
  std::string out = "?v" + std::to_string(c.var());
  if (!c.exclusions().empty()) {
    out += "-{";
    bool first = true;
    for (const Value& v : c.exclusions()) {
      if (!first) out += ",";
      first = false;
      out += SerializeValue(v);
    }
    out += "}";
  }
  return out;
}

Result<Value> ParseValue(std::string_view text, ValueType type) {
  HYP_ASSIGN_OR_RETURN(std::string raw, UnescapeCell(text));
  if (type == ValueType::kInt) {
    HYP_ASSIGN_OR_RETURN(int64_t i, ParseInt64(raw));
    return Value(i);
  }
  return Value(std::move(raw));
}

Result<Schema> ParseSchemaLine(std::string_view line) {
  std::vector<Attribute> attrs;
  for (const std::string& piece : SplitStringTopLevel(line, ',')) {
    std::string_view p = TrimWhitespace(piece);
    size_t colon = p.rfind(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("attribute spec needs name:type, got '" +
                                     std::string(p) + "'");
    }
    std::string name(TrimWhitespace(p.substr(0, colon)));
    std::string_view type = TrimWhitespace(p.substr(colon + 1));
    if (name.empty()) {
      return Status::InvalidArgument("empty attribute name in '" +
                                     std::string(p) + "'");
    }
    if (type == "string") {
      attrs.emplace_back(name, Domain::AllStrings());
    } else if (type == "int") {
      attrs.emplace_back(name, Domain::AllInts());
    } else {
      return Status::InvalidArgument("unknown attribute type '" +
                                     std::string(type) + "'");
    }
  }
  if (attrs.empty()) {
    return Status::InvalidArgument("empty attribute list");
  }
  return Schema(std::move(attrs));
}

// Parses "?ident" or "?ident-{v1,...}"; var names map to dense ids.
Result<Cell> ParseVariableCell(
    std::string_view text, ValueType type,
    std::unordered_map<std::string, VarId>* var_names) {
  std::string_view body = text.substr(1);  // drop '?'
  std::set<Value> exclusions;
  size_t brace = body.find("-{");
  std::string var_name;
  if (brace != std::string_view::npos) {
    if (body.back() != '}') {
      return Status::InvalidArgument("unterminated exclusion set in '" +
                                     std::string(text) + "'");
    }
    var_name = std::string(TrimWhitespace(body.substr(0, brace)));
    std::string_view inner =
        body.substr(brace + 2, body.size() - brace - 3);
    if (!TrimWhitespace(inner).empty()) {
      for (const std::string& piece : SplitStringTopLevel(inner, ',')) {
        HYP_ASSIGN_OR_RETURN(Value v,
                             ParseValue(TrimWhitespace(piece), type));
        exclusions.insert(std::move(v));
      }
    }
  } else {
    var_name = std::string(TrimWhitespace(body));
  }
  if (var_name.empty()) {
    return Status::InvalidArgument("empty variable name in '" +
                                   std::string(text) + "'");
  }
  auto [it, inserted] =
      var_names->emplace(var_name, static_cast<VarId>(var_names->size()));
  (void)inserted;
  return Cell::Variable(it->second, std::move(exclusions));
}

}  // namespace

std::string MappingTable::Serialize() const {
  std::ostringstream os;
  os << "# hyperion mapping-table v1\n";
  if (!name_.empty()) os << "name: " << name_ << "\n";
  os << "x: " << SerializeSchemaLine(x_schema_) << "\n";
  os << "y: " << SerializeSchemaLine(y_schema_) << "\n";
  for (const Mapping& row : rows()) {
    std::vector<std::string> cells;
    cells.reserve(row.arity());
    for (const Cell& c : row.cells()) cells.push_back(SerializeCell(c));
    os << JoinStrings(cells, "|") << "\n";
  }
  return os.str();
}

Result<MappingTable> MappingTable::Parse(std::string_view text) {
  std::optional<Schema> x_schema;
  std::optional<Schema> y_schema;
  std::string name;
  std::optional<MappingTable> table;
  for (const std::string& raw_line : SplitString(text, '\n')) {
    std::string_view line = TrimWhitespace(raw_line);
    if (line.empty() || line[0] == '#') continue;
    if (StartsWith(line, "name:")) {
      name = std::string(TrimWhitespace(line.substr(5)));
      continue;
    }
    if (StartsWith(line, "x:")) {
      HYP_ASSIGN_OR_RETURN(Schema s, ParseSchemaLine(line.substr(2)));
      x_schema = std::move(s);
      continue;
    }
    if (StartsWith(line, "y:")) {
      HYP_ASSIGN_OR_RETURN(Schema s, ParseSchemaLine(line.substr(2)));
      y_schema = std::move(s);
      continue;
    }
    // Row line.
    if (!x_schema || !y_schema) {
      return Status::InvalidArgument(
          "row encountered before x:/y: schema lines");
    }
    if (!table) {
      HYP_ASSIGN_OR_RETURN(MappingTable t,
                           Create(*x_schema, *y_schema, name));
      table = std::move(t);
    }
    std::vector<std::string> cell_texts = SplitStringTopLevel(line, '|');
    if (cell_texts.size() != table->schema().arity()) {
      return Status::InvalidArgument(
          "row has " + std::to_string(cell_texts.size()) +
          " cells, expected " + std::to_string(table->schema().arity()));
    }
    std::unordered_map<std::string, VarId> var_names;
    Mapping::Builder cells(cell_texts.size());
    for (size_t i = 0; i < cell_texts.size(); ++i) {
      std::string_view cell_text = TrimWhitespace(cell_texts[i]);
      ValueType type = table->schema().attr(i).domain()->value_type();
      if (!cell_text.empty() && cell_text[0] == '?') {
        HYP_ASSIGN_OR_RETURN(Cell c,
                             ParseVariableCell(cell_text, type, &var_names));
        cells.Append(std::move(c));
      } else {
        HYP_ASSIGN_OR_RETURN(Value v, ParseValue(cell_text, type));
        cells.Append(Cell::Constant(std::move(v)));
      }
    }
    HYP_RETURN_IF_ERROR(table->AddRow(std::move(cells).Build()));
  }
  if (!table) {
    if (!x_schema || !y_schema) {
      return Status::InvalidArgument("mapping-table text lacks x:/y: lines");
    }
    HYP_ASSIGN_OR_RETURN(MappingTable t, Create(*x_schema, *y_schema, name));
    table = std::move(t);
  }
  return std::move(*table);
}

MappingTable::Stats MappingTable::Describe() const {
  Stats stats;
  stats.rows = table_.size();
  for (const Mapping& row : rows()) {
    bool ground = true;
    for (const Cell& c : row.cells()) {
      if (c.is_variable()) {
        ground = false;
        stats.total_exclusion_values += c.exclusions().size();
      }
    }
    if (ground) {
      ++stats.ground_rows;
    } else {
      ++stats.variable_rows;
    }
  }
  stats.distinct_ground_x = ground_x_index_.size();
  size_t indexed_rows = 0;
  for (const auto& [x, rows] : ground_x_index_) {
    (void)x;
    stats.max_fanout = std::max(stats.max_fanout, rows.size());
    indexed_rows += rows.size();
  }
  if (stats.distinct_ground_x > 0) {
    stats.avg_fanout = static_cast<double>(indexed_rows) /
                       static_cast<double>(stats.distinct_ground_x);
  }
  return stats;
}

MappingTable::MappingShape MappingTable::Classify() const {
  bool one_to_many = false;
  bool many_to_one = false;
  std::unordered_map<Tuple, Tuple, TupleHash> y_of_x;
  std::unordered_map<Tuple, Tuple, TupleHash> x_of_y;
  for (const Mapping& row : rows()) {
    if (!row.IsGround()) {
      // A variable row is bidirectionally functional only when it is
      // identity-shaped: every Y variable also appears on the X side and
      // no Y cell is a constant (a constant Y with variable X maps many
      // X values to one Y).
      std::set<VarId> x_vars;
      for (size_t i = 0; i < x_arity(); ++i) {
        if (row.cell(i).is_variable()) x_vars.insert(row.cell(i).var());
      }
      bool identity_shaped = true;
      for (size_t i = x_arity(); i < row.arity(); ++i) {
        const Cell& c = row.cell(i);
        if (c.is_constant() || !x_vars.count(c.var())) {
          identity_shaped = false;
          break;
        }
      }
      if (!identity_shaped) return MappingShape::kManyToMany;
      continue;  // identity rows are 1-1; they do not change the class
    }
    // Cells are constants here; extract the values.
    Tuple xv;
    Tuple yv;
    for (size_t i = 0; i < row.arity(); ++i) {
      (i < x_arity() ? xv : yv).push_back(row.cell(i).value());
    }
    auto [xi, x_new] = y_of_x.emplace(xv, yv);
    if (!x_new && !(xi->second == yv)) one_to_many = true;
    auto [yi, y_new] = x_of_y.emplace(yv, xv);
    if (!y_new && !(yi->second == xv)) many_to_one = true;
  }
  if (one_to_many && many_to_one) return MappingShape::kManyToMany;
  if (one_to_many) return MappingShape::kOneToMany;
  if (many_to_one) return MappingShape::kManyToOne;
  return MappingShape::kOneToOne;
}

const char* MappingTable::MappingShapeToString(MappingShape shape) {
  switch (shape) {
    case MappingShape::kOneToOne:
      return "one-to-one";
    case MappingShape::kOneToMany:
      return "one-to-many";
    case MappingShape::kManyToOne:
      return "many-to-one";
    case MappingShape::kManyToMany:
      return "many-to-many";
  }
  return "unknown";
}

std::string MappingTable::ToString() const {
  std::ostringstream os;
  os << "MappingTable";
  if (!name_.empty()) os << " '" << name_ << "'";
  os << " " << x_schema_.ToString() << " -> " << y_schema_.ToString() << " ["
     << table_.size() << " rows]\n";
  size_t shown = 0;
  for (const Mapping& row : rows()) {
    if (shown++ >= 20) {
      os << "  ... (" << table_.size() - 20 << " more)\n";
      break;
    }
    os << "  " << row.ToString() << "\n";
  }
  return os.str();
}

}  // namespace hyperion
