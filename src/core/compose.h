// The relational algebra of free-tuple tables (free_table.h): natural
// join and projection, through one join kernel, JoinIndex.  The cover
// computation of §6 is built from them: the cover of a conjunction of
// mapping constraints is the projection of the natural join of their
// tables onto the endpoint attributes, and a join of tables that share
// no attribute is their Cartesian product, as is the combination of
// independent partitions' covers.
//
// ext(table) = ⋃ over rows of ext(row) (rows are variable-disjoint), and
// join/projection distribute over that union, so row-pairwise unification
// (see unify.h) computes exact results.

#ifndef HYPERION_CORE_COMPOSE_H_
#define HYPERION_CORE_COMPOSE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/constraint.h"
#include "core/free_table.h"
#include "core/mapping.h"
#include "core/mapping_table.h"
#include "core/row_index.h"
#include "core/schema.h"
#include "core/tuple.h"

namespace hyperion {

/// \brief A natural-join index built once over one table and probed by
/// many.  Join(probe) equals build.NaturalJoin(probe) row for row and in
/// order, at a cost that grows with the probe and its matches rather
/// than with the build table — what a peer needs to join every streamed
/// batch with its fixed local tables (§6.3).  NaturalJoin itself is a
/// one-shot index, so there is one join implementation.
///
/// When the schemas share no attribute every row keys on the empty
/// tuple, so each probe row meets every build row and the join is the
/// Cartesian product, in (build row, probe row) order.  A product past
/// max_result_rows fails before any pair is made, with the status
/// "CartesianProduct: result exceeds max rows".
class JoinIndex {
 public:
  /// \brief Indexes `build`'s rows on the attributes it shares with
  /// `probe_schema` (none for a product).  `build` must outlive the
  /// index, unchanged.
  static Result<JoinIndex> Build(const FreeTable& build,
                                 const Schema& probe_schema);

  /// \brief build ⋈ probe, for the probe rows `rows` over
  /// `probe_schema`, which must be the schema the index was built for.
  /// The rows are read in place; like a FreeTable's, they must be
  /// normalized, satisfiable and distinct, or the result is not the
  /// join of the FreeTable they would make.
  Result<FreeTable> Join(const Schema& probe_schema,
                         std::span<const Mapping> rows,
                         const ComposeOptions& opts = {}) const;
  Result<FreeTable> Join(const FreeTable& probe,
                         const ComposeOptions& opts = {}) const {
    return Join(probe.schema(), probe.rows(), opts);
  }

  /// \brief A peer's per-batch step of §6.3.2 in one pass: joins `rows`
  /// as Join does, projects each joined row onto `keep_names` (names of
  /// out_schema()) and adds the projection to `*emitted`, appending the
  /// rows new to it to `fresh`.  `*emitted` is made, over the projected
  /// schema, when the first joined row appears.  The result equals
  /// Join, then ProjectOnto(keep_names), then emitted->AddRow of each
  /// projected row, row for row and in order, and fails on the same
  /// inputs with the same status; on failure `*emitted` and `fresh` may
  /// hold part of the batch.  With `keep_names` empty nothing is
  /// projected: only the joined rows are counted.  Returns the number of
  /// distinct joined rows.
  ///
  /// A pair of all-constant rows, which the index lookup has already
  /// unified, is projected by copying its kept cells; any other pair is
  /// joined (JoinPair) and projected exactly (ProjectRow).
  Result<size_t> JoinProject(const Schema& probe_schema,
                             std::span<const Mapping> rows,
                             const std::vector<std::string>& keep_names,
                             const ComposeOptions& opts,
                             std::optional<FreeTable>* emitted,
                             std::vector<Mapping>* fresh) const;

  const FreeTable& build() const { return *build_; }
  const Schema& probe_schema() const { return probe_schema_; }
  /// The schema of a joined row: build schema ++ probe's private
  /// attributes.
  const Schema& out_schema() const { return out_schema_; }

 private:
  // One (build row, rank, probe row) pair that may join; see Candidates.
  struct Candidate {
    uint32_t build;
    uint32_t rank;
    uint32_t probe;
    bool operator<(const Candidate& o) const {
      return std::tie(build, rank, probe) < std::tie(o.build, o.rank, o.probe);
    }
  };

  JoinIndex() = default;

  Status CheckProbeSchema(const Schema& probe_schema) const;
  // The pairs of build row and probe row to try, in emission order.
  // Fails when they are a product's pairs and more than the row limit.
  Result<std::vector<Candidate>> Candidates(std::span<const Mapping> rows,
                                            const ComposeOptions& opts) const;
  // The joined row of a pair that needs no unification (no attribute is
  // shared, or both rows are all constants and the lookup matched their
  // shared constants): `a` followed by b's private cells, b's variables
  // shifted past a's.
  Mapping Concatenate(const Mapping& a, const Mapping& b) const;
  // The kernel: build row `a` joined with probe row `b` over out_schema_
  // (not yet normalized), or nullopt when they do not unify on the
  // shared attributes; with none shared, their concatenation.
  std::optional<Mapping> JoinPair(const Mapping& a, const Mapping& b) const;
  // For a ground joined row: the pair of ground build and probe rows
  // (among `rows`, indexed lazily in `probe_index`) that joins to it, if
  // there is one.
  std::optional<Candidate> GroundPairOf(const Mapping& joined,
                                        std::span<const Mapping> rows,
                                        std::optional<RowIndex>* probe_index)
      const;

  const FreeTable* build_ = nullptr;
  Schema probe_schema_;
  // Shared attributes as (build position, probe position), in probe
  // order; the probe positions of the other attributes.
  std::vector<std::pair<size_t, size_t>> shared_;
  std::vector<size_t> probe_private_;
  Schema out_schema_;  // build schema ++ probe's private attributes
  // Build rows whose shared cells are all constants, by those constants;
  // the rest (a variable in some shared cell) match any probe row.
  std::unordered_map<Tuple, std::vector<uint32_t>, TupleHash> ground_rows_;
  std::vector<uint32_t> variable_rows_;
  // Whether each build row is all constants.
  std::vector<bool> ground_build_;
};

/// \brief One step of cover computation: composes a: X --ma--> Y with
/// b: Y' --mb--> Z into the cover X --m--> Z of {a, b}, joining on every
/// attribute a's and b's schemas share and projecting onto X ∪ Z.
///
/// Fails when a's and b's schemas share no attribute (there is nothing to
/// compose: their join would be the Cartesian product) and requires
/// X ∪ Z to be nonempty on both sides.
Result<MappingTable> ComposeConstraints(const MappingConstraint& a,
                                        const MappingConstraint& b,
                                        const ComposeOptions& opts = {});

}  // namespace hyperion

#endif  // HYPERION_CORE_COMPOSE_H_
