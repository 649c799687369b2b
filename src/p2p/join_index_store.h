// JoinIndexStore: the join indexes over a peer's fixed local tables, and
// the starters' projections of them, kept across cover sessions.
//
// In the computation phase (§6.3) a peer joins every streamed batch with
// its local side of the partition, through a JoinIndex over that side
// (compose.h), and a partition's starter streams the projection of its
// local side.  When the local side is one catalog table read in place,
// it is the same immutable object in every session that runs on that
// table version, and so are its index and its projection: the store
// keeps them.
//
// The store has one index slot per (table name, probe schema) and one
// projection slot per (table name, projected names, compose limits).  A
// slot serves a lookup only for the very table object it was built from
// (an index slot also only for a probe schema equal to its own, domains
// included); any other lookup builds anew and replaces the slot.  A new
// table version therefore replaces its slots instead of adding to them,
// so the store holds at most one index per (catalog table, probe schema)
// and one projection per (catalog table, projection, limits): its size
// follows the catalog's shape, not the traffic.  A local side that is
// not one shared table (several member tables joined, or rows cut by
// semijoin filters) is private to its session: its index or projection
// is built through the same call and not kept.  Nor is a build that
// fails, such as a projection past its compose limits.
//
// A QueryService owns one store and hands it to the peers of every
// session, as it does its LinkRttTable; a PeerNode built without one owns
// a private store.  Every index built adds one to the protocol counter
// cover.join_index_builds, and every projection built one to
// cover.starter_projection_builds (docs/METRICS.md).

#ifndef HYPERION_P2P_JOIN_INDEX_STORE_H_
#define HYPERION_P2P_JOIN_INDEX_STORE_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "core/compose.h"
#include "core/schema.h"

namespace hyperion {

/// \brief Thread-safe store of join indexes, one per (table name, probe
/// schema), and of projections, one per (table name, projected names,
/// compose limits).
class JoinIndexStore {
 public:
  JoinIndexStore() = default;
  JoinIndexStore(const JoinIndexStore&) = delete;
  JoinIndexStore& operator=(const JoinIndexStore&) = delete;

  /// \brief An index over `build` for probes of `probe_schema`, sharing
  /// ownership of `build`.  `table` names the shared catalog table that
  /// `build` is; its index is kept for later lookups.  An empty `table`
  /// marks a build private to the caller, whose index is not kept.
  Result<std::shared_ptr<const JoinIndex>> Get(
      const std::string& table, std::shared_ptr<const FreeTable> build,
      const Schema& probe_schema);

  /// \brief `local.ProjectOnto(names, opts)`, sharing ownership of
  /// `local`.  `table` names the shared catalog table that `local` is;
  /// its projection is kept for later lookups.  An empty `table` marks a
  /// side private to the caller, whose projection is not kept.
  Result<std::shared_ptr<const FreeTable>> GetProjection(
      const std::string& table, std::shared_ptr<const FreeTable> local,
      const std::vector<std::string>& names, const ComposeOptions& opts);

  /// \brief Number of kept indexes.
  size_t size() const;
  /// \brief Number of kept projections.
  size_t projections() const;

 private:
  // A kept projection and the table it was built from, which it owns.
  struct ProjectionSlot {
    const FreeTable* source = nullptr;
    std::shared_ptr<const FreeTable> projection;
  };

  // Leaf lock (DESIGN.md §12): held only around the maps; indexes and
  // projections are built, and replaced ones destroyed, outside it.
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<const JoinIndex>> slots_
      GUARDED_BY(mu_);
  std::map<std::string, ProjectionSlot> projections_ GUARDED_BY(mu_);
};

}  // namespace hyperion

#endif  // HYPERION_P2P_JOIN_INDEX_STORE_H_
