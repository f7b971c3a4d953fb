#include "core/knot.hpp"

#include <algorithm>

#include "core/scc.hpp"

namespace flexnet {

std::vector<Knot> knots_from_scc(const Digraph& g, const SccResult& scc) {
  // A component is terminal when no member has an edge leaving it; it is a
  // knot when it additionally contains an edge (size >= 2, or a self-loop).
  std::vector<bool> terminal(static_cast<std::size_t>(scc.num_components), true);
  std::vector<bool> has_self_loop(static_cast<std::size_t>(scc.num_components), false);
  for (const int v : scc.reached) {
    const int cv = scc.component[static_cast<std::size_t>(v)];
    for (const int w : g.out(v)) {
      if (w == v) {
        has_self_loop[static_cast<std::size_t>(cv)] = true;
      } else if (scc.component[static_cast<std::size_t>(w)] != cv) {
        terminal[static_cast<std::size_t>(cv)] = false;
      }
    }
  }

  std::vector<int> knot_of_comp(static_cast<std::size_t>(scc.num_components), -1);
  std::vector<Knot> knots;
  for (int c = 0; c < scc.num_components; ++c) {
    const bool nontrivial = scc.size[static_cast<std::size_t>(c)] >= 2 ||
                            has_self_loop[static_cast<std::size_t>(c)];
    if (terminal[static_cast<std::size_t>(c)] && nontrivial) {
      knot_of_comp[static_cast<std::size_t>(c)] = static_cast<int>(knots.size());
      knots.emplace_back();
    }
  }
  if (knots.empty()) return knots;

  for (const int v : scc.reached) {
    const int k =
        knot_of_comp[static_cast<std::size_t>(scc.component[static_cast<std::size_t>(v)])];
    if (k >= 0) knots[static_cast<std::size_t>(k)].knot_vcs.push_back(v);
  }

  // Tarjan lists a component's members and numbers components in
  // DFS-dependent order, which depends on where the search started. Sorting
  // each knot's VCs, then the knots by their smallest VC (knots are
  // disjoint), makes the output canonical.
  for (Knot& knot : knots) {
    std::sort(knot.knot_vcs.begin(), knot.knot_vcs.end());
  }
  std::sort(knots.begin(), knots.end(), [](const Knot& a, const Knot& b) {
    return a.knot_vcs.front() < b.knot_vcs.front();
  });
  return knots;
}

void characterize_knots(const Cwg& cwg, std::vector<Knot>& knots) {
  if (knots.empty()) return;

  // Characterize each knot: deadlock set, resource set, dependent messages.
  for (Knot& knot : knots) {
    for (const VcId vc : knot.knot_vcs) {
      const MessageId owner = cwg.owner_of(vc);
      if (owner != kInvalidMessage) knot.deadlock_set.push_back(owner);
    }
    std::sort(knot.deadlock_set.begin(), knot.deadlock_set.end());
    knot.deadlock_set.erase(
        std::unique(knot.deadlock_set.begin(), knot.deadlock_set.end()),
        knot.deadlock_set.end());

    for (const MessageId id : knot.deadlock_set) {
      const CwgMessage* msg = cwg.find_message(id);
      knot.resource_set.insert(knot.resource_set.end(), msg->held.begin(),
                               msg->held.end());
    }
    std::sort(knot.resource_set.begin(), knot.resource_set.end());
  }

  // Dependent messages: blocked, outside every deadlock set, requesting a VC
  // inside some knot's resource set.
  for (const CwgMessage& msg : cwg.messages()) {
    if (msg.requests.empty()) continue;
    for (Knot& knot : knots) {
      if (std::binary_search(knot.deadlock_set.begin(), knot.deadlock_set.end(),
                             msg.id)) {
        continue;
      }
      const bool waits_on_knot = std::any_of(
          msg.requests.begin(), msg.requests.end(), [&](VcId want) {
            return std::binary_search(knot.resource_set.begin(),
                                      knot.resource_set.end(), want);
          });
      if (waits_on_knot) knot.dependent_messages.push_back(msg.id);
    }
  }
}

std::vector<Knot> find_knots(const Cwg& cwg) {
  const Digraph& g = cwg.graph();
  const SccResult scc = strongly_connected_components(g);
  std::vector<Knot> knots = knots_from_scc(g, scc);
  characterize_knots(cwg, knots);
  return knots;
}

CycleEnumeration knot_cycle_density(const Cwg& cwg, const Knot& knot,
                                    std::int64_t cap, std::size_t store_limit) {
  const Digraph sub = cwg.induced(knot.knot_vcs);
  CycleEnumeration result = enumerate_simple_cycles(sub, cap, store_limit);
  // Map stored cycle vertices back to the original VC ids.
  for (auto& cycle : result.cycles) {
    for (int& v : cycle) {
      v = knot.knot_vcs[static_cast<std::size_t>(v)];
    }
  }
  return result;
}

bool has_deadlock(const Cwg& cwg) { return !find_knots(cwg).empty(); }

namespace {

// SplitMix64 finalizer: the standard 64-bit avalanche mix.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) noexcept {
  return mix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

}  // namespace

std::uint64_t canonical_knot_hash(const Cwg& cwg, const Knot& knot) {
  const Digraph sub = cwg.induced(knot.knot_vcs);
  const int n = sub.num_vertices();
  if (n == 0) return mix64(0);

  // Reverse adjacency so refinement sees both edge directions.
  std::vector<std::vector<int>> in_adj(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    for (const int w : sub.out(v)) in_adj[static_cast<std::size_t>(w)].push_back(v);
  }

  // Initial color: local structure only (degrees + the owning message's held
  // and request counts) — nothing position-dependent.
  std::vector<std::uint64_t> color(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> next(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    const MessageId owner =
        cwg.owner_of(knot.knot_vcs[static_cast<std::size_t>(v)]);
    std::uint64_t held = 0;
    std::uint64_t requests = 0;
    if (owner != kInvalidMessage) {
      if (const CwgMessage* msg = cwg.find_message(owner)) {
        held = msg->held.size();
        requests = msg->requests.size();
      }
    }
    std::uint64_t h = mix64(static_cast<std::uint64_t>(sub.out(v).size()));
    h = hash_combine(h, in_adj[static_cast<std::size_t>(v)].size());
    h = hash_combine(h, held);
    h = hash_combine(h, requests);
    color[static_cast<std::size_t>(v)] = h;
  }

  // Three rounds of refinement: new color = f(old color, sorted out-neighbor
  // colors, sorted in-neighbor colors). Sorting makes each step independent
  // of vertex numbering.
  std::vector<std::uint64_t> bucket;
  for (int round = 0; round < 3; ++round) {
    for (int v = 0; v < n; ++v) {
      std::uint64_t h = mix64(color[static_cast<std::size_t>(v)]);
      bucket.clear();
      for (const int w : sub.out(v)) bucket.push_back(color[static_cast<std::size_t>(w)]);
      std::sort(bucket.begin(), bucket.end());
      for (const std::uint64_t c : bucket) h = hash_combine(h, c);
      h = hash_combine(h, 0x6f75742f696eULL);  // separate out- from in-fold
      bucket.clear();
      for (const int w : in_adj[static_cast<std::size_t>(v)]) {
        bucket.push_back(color[static_cast<std::size_t>(w)]);
      }
      std::sort(bucket.begin(), bucket.end());
      for (const std::uint64_t c : bucket) h = hash_combine(h, c);
      next[static_cast<std::size_t>(v)] = h;
    }
    color.swap(next);
  }

  std::sort(color.begin(), color.end());
  std::uint64_t h = mix64(static_cast<std::uint64_t>(n));
  for (const std::uint64_t c : color) h = hash_combine(h, c);
  return h;
}

}  // namespace flexnet
