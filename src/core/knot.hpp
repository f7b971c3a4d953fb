// Knot detection: the heart of true deadlock detection.
//
// A knot is a vertex set R in which the set of vertices reachable from every
// member of R is exactly R — equivalently, a terminal (no outgoing edges in
// the condensation) strongly connected component that contains at least one
// edge. Given a connected routing function, a knot in the CWG is a necessary
// and sufficient condition for deadlock [Warnakulasuriya & Pinkston, TR
// CENG 97-01]; cycles alone are necessary but NOT sufficient (paper Fig. 4).
#pragma once

#include <cstdint>
#include <vector>

#include "core/cwg.hpp"
#include "core/cycles.hpp"

namespace flexnet {

/// One deadlock, characterized as in the paper's Section 2.2.
struct Knot {
  /// Virtual channels forming the knot (the terminal SCC), ascending.
  std::vector<VcId> knot_vcs;
  /// Messages owning at least one knot VC — removing one of these is
  /// necessary to resolve the deadlock.
  std::vector<MessageId> deadlock_set;
  /// Every VC held by the deadlock set (a superset of knot_vcs; this is the
  /// paper's "resource set").
  std::vector<VcId> resource_set;
  /// Blocked messages outside the deadlock set waiting on a resource-set VC.
  /// They cannot proceed until recovery, but removing them would NOT resolve
  /// the deadlock (the paper's "dependent messages").
  std::vector<MessageId> dependent_messages;
};

/// Finds every knot in the CWG. An empty result means no deadlock exists,
/// regardless of how many cycles the graph contains. Knots are ordered by
/// their smallest VC — canonical regardless of how the SCC pass numbered
/// components, so a search from every vertex and one from the blocked tips
/// agree.
[[nodiscard]] std::vector<Knot> find_knots(const Cwg& cwg);

struct SccResult;  // core/scc.hpp

/// Extracts the knots (terminal SCCs containing an edge) among the
/// components `scc` reached in `g`, filling only knot_vcs (sorted ascending;
/// knots ordered by smallest VC). The reached set must have no arc leaving
/// it, as every search's does.
[[nodiscard]] std::vector<Knot> knots_from_scc(const Digraph& g,
                                               const SccResult& scc);

/// Fills each knot's deadlock set, resource set, and dependent messages from
/// the owning CWG (the paper's Section 2.2 characterization).
void characterize_knots(const Cwg& cwg, std::vector<Knot>& knots);

/// Knot cycle density: the number of unique elementary cycles within the
/// knot-induced subgraph (1 for the paper's "single-cycle deadlocks").
[[nodiscard]] CycleEnumeration knot_cycle_density(const Cwg& cwg,
                                                  const Knot& knot,
                                                  std::int64_t cap,
                                                  std::size_t store_limit = 0);

/// Convenience: true iff the CWG contains at least one knot.
[[nodiscard]] bool has_deadlock(const Cwg& cwg);

/// Position-independent structural hash of a knot: Weisfeiler–Leman color
/// refinement over the knot-induced subgraph, seeded with per-vertex local
/// structure (in/out degree plus the owning message's held/request counts).
/// Two deadlocks that are the same wait-for pattern translated across the
/// torus hash equal; structurally different knots collide only by accident.
/// Used to dedupe the captured deadlock corpus.
[[nodiscard]] std::uint64_t canonical_knot_hash(const Cwg& cwg,
                                                const Knot& knot);

}  // namespace flexnet
