// Routing-relation and selection-policy variants of the lockstep grid config
// (8-ary 2-cube, length 8, seed 13, load 0.5, RemoveOldest recovery). The
// serial and one-shard state-pin tests hash the state each variant reaches,
// so a drift in any routing relation or selection policy the header-retry
// loop serves is caught, not only in the grid's DOR/TFAR/TableMin.
#pragma once

#include <string_view>

#include "exp/experiment.hpp"

namespace flexnet {

struct RoutingVariant {
  std::string_view name;
  RoutingKind routing = RoutingKind::TFAR;
  int vcs = 1;
  SelectionKind selection = SelectionKind::PreferStraight;
  bool mesh = false;
  double link_fault_fraction = 0.0;
  int max_misroutes = 0;
};

inline constexpr RoutingVariant kRoutingVariants[] = {
    {"DatelineDOR, 2 VCs", RoutingKind::DatelineDOR, 2},
    // Duato's allocator tries high VC indices first.
    {"DuatoTFAR, 3 VCs", RoutingKind::DuatoTFAR, 3},
    {"NegativeFirst, mesh", RoutingKind::NegativeFirst, 1,
     SelectionKind::PreferStraight, true},
    // Forced and voluntary misroutes; TFAR's self-owned detour check.
    {"TFAR, faults 0.1, 2 misroutes", RoutingKind::TFAR, 1,
     SelectionKind::PreferStraight, false, 0.1, 2},
    {"TFAR, 2 VCs, Random", RoutingKind::TFAR, 2, SelectionKind::Random},
    {"TFAR, 2 VCs, LowestIndex", RoutingKind::TFAR, 2,
     SelectionKind::LowestIndex},
};

/// `grid` with `variant`'s routing, VC count, selection, mesh flag, fault
/// fraction and misroute budget applied.
inline ExperimentConfig apply_variant(ExperimentConfig grid,
                                      const RoutingVariant& variant) {
  grid.sim.routing = variant.routing;
  grid.sim.vcs = variant.vcs;
  grid.sim.selection = variant.selection;
  grid.sim.topology.wrap = !variant.mesh;
  grid.sim.link_fault_fraction = variant.link_fault_fraction;
  grid.sim.max_misroutes = variant.max_misroutes;
  return grid;
}

}  // namespace flexnet
