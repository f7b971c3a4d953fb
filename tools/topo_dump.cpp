// Topology inspector: build any topology the simulator can run (generator
// flags or a flexnet-topo-v1 file) and describe it without simulating.
//
//   topo_dump --topology dragonfly --df-routers 4 --df-globals 1
//   topo_dump --topology file:examples/topologies/irregular-16.topo
//   topo_dump --topology random --nodes 24 --degree 3 --dot random.dot
//   topo_dump --topology dragonfly --df-routers 8 --emit dragonfly-72.topo
//
// Prints node/link counts, average distance, content hash, and the
// out-degree histogram. --dot FILE writes Graphviz; --emit FILE writes the
// topology back out as flexnet-topo-v1 text (works for every family, torus
// included, so generated networks can be committed as files).
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <string_view>

#include "core/dot.hpp"
#include "exp/cli.hpp"
#include "topo/factory.hpp"
#include "topo/topo_file.hpp"
#include "topo/topology.hpp"
#include "util/options.hpp"

namespace {

using namespace flexnet;

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  out << text;
}

// Every option this tool reads.
constexpr std::string_view kOptions[] = {
    "help", "topology", "k", "n", "uni", "mesh", "nodes", "degree",
    "df-routers", "df-globals", "topo-seed", "dot", "emit"};

int describe(const Options& opts) {
  if (opts.get_bool("help", false)) {
    std::printf(
        "usage: topo_dump --topology "
        "torus|mesh|fullmesh|dragonfly|random|file:<path>\n"
        "  torus/mesh:  --k --n --uni\n"
        "  dragonfly:   --df-routers --df-globals\n"
        "  random:      --nodes --degree --topo-seed\n"
        "  fullmesh:    --nodes\n"
        "  output:      --dot FILE (Graphviz)  --emit FILE (flexnet-topo-v1)\n");
    return 0;
  }

  SimConfig cfg;
  const std::string topo_arg = opts.get("topology", "torus");
  cfg.topo_kind = parse_topology(topo_arg);
  if (cfg.topo_kind == TopoKind::File) cfg.topo_file = topo_arg.substr(5);
  cfg.topology.k = static_cast<int>(opts.get_int("k", cfg.topology.k));
  cfg.topology.n = static_cast<int>(opts.get_int("n", cfg.topology.n));
  cfg.topology.bidirectional = !opts.get_bool("uni", false);
  cfg.topology.wrap = topo_arg != "mesh" && !opts.get_bool("mesh", false);
  cfg.topo_nodes = static_cast<int>(opts.get_int("nodes", cfg.topo_nodes));
  cfg.topo_degree = static_cast<int>(opts.get_int("degree", cfg.topo_degree));
  cfg.topo_df_routers =
      static_cast<int>(opts.get_int("df-routers", cfg.topo_df_routers));
  cfg.topo_df_globals =
      static_cast<int>(opts.get_int("df-globals", cfg.topo_df_globals));
  cfg.topo_seed = static_cast<std::uint64_t>(opts.get_int("topo-seed", 1));

  const auto topo = make_topology(cfg);

  std::printf("%s\n", topo->name().c_str());
  std::printf("  kind          %s\n",
              std::string(to_string(topo->kind())).c_str());
  std::printf("  nodes         %d\n", topo->num_nodes());
  std::printf("  channels      %zu\n", topo->channels().size());
  std::printf("  avg distance  %.4f\n", topo->average_distance());
  std::printf("  content hash  %016llx\n",
              static_cast<unsigned long long>(topo->content_hash()));

  // Out-degree histogram: degree -> node count.
  std::map<std::size_t, int> histogram;
  for (NodeId v = 0; v < topo->num_nodes(); ++v) {
    ++histogram[topo->out_channels(v).size()];
  }
  std::printf("  degree histogram (out)\n");
  for (const auto& [degree, count] : histogram) {
    std::printf("    %3zu: %d node(s)\n", degree, count);
  }

  if (opts.has("dot")) {
    write_file(opts.get("dot"), topology_to_dot(*topo));
    std::printf("DOT written to %s\n", opts.get("dot").c_str());
  }
  if (opts.has("emit")) {
    GraphTopology::Spec spec;
    spec.kind = topo->kind() == TopoKind::Torus ? TopoKind::File : topo->kind();
    spec.name = topo->name();
    spec.nodes = topo->num_nodes();
    spec.links.reserve(topo->channels().size());
    for (const ChannelDesc& ch : topo->channels()) {
      spec.links.push_back({ch.src, ch.dst, ch.width});
    }
    write_file(opts.get("emit"), write_topology_text(spec));
    std::printf("flexnet-topo-v1 written to %s\n", opts.get("emit").c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return flexnet::run_main(argc, argv, kOptions, describe);
}
