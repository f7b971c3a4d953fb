#include "routing/selection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "routing/routing.hpp"
#include "sim/network.hpp"
#include "topo/torus.hpp"

namespace flexnet {
namespace {

class SelectionTest : public ::testing::Test {
 protected:
  SelectionTest() {
    cfg_.topology.k = 8;
    cfg_.topology.n = 2;
    cfg_.routing = RoutingKind::TFAR;
    net_ = std::make_unique<Network>(cfg_, NetworkDeps{nullptr, make_routing(cfg_),
                                 make_selection(cfg_.selection)});
  }

  SimConfig cfg_;
  std::unique_ptr<Network> net_;
  Pcg32 rng_{99};
};

TEST_F(SelectionTest, PreferStraightPutsCurrentDimensionFirst) {
  const auto policy = make_selection(SelectionKind::PreferStraight);
  // Header arrived via a dim-1 channel into node 9.
  const ChannelId in_ch = torus_topology(net_->topology()).out_channel(1, 1, +1);
  const VcId in_vc = net_->phys(in_ch).first_vc;
  const NodeId here = net_->phys(in_ch).dst;

  std::vector<ChannelId> channels{
      torus_topology(net_->topology()).out_channel(here, 0, +1),
      torus_topology(net_->topology()).out_channel(here, 1, +1),
      torus_topology(net_->topology()).out_channel(here, 0, -1),
  };
  Message m;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ChannelId> ordered = channels;
    policy->order(*net_, m, in_vc, ordered, rng_);
    ASSERT_EQ(ordered.size(), 3u);
    EXPECT_EQ(net_->phys(ordered[0]).dim, 1) << "straight channel must lead";
  }
}

TEST_F(SelectionTest, PreferStraightRandomizesEqualAlternatives) {
  // From the injection channel there is no current dimension; all orders
  // should appear over repeated trials (the detail that keeps adaptive
  // routing from collapsing into dimension order).
  const auto policy = make_selection(SelectionKind::PreferStraight);
  const VcId inj_vc = net_->phys(net_->injection_channel(0)).first_vc;
  std::vector<ChannelId> channels{
      torus_topology(net_->topology()).out_channel(0, 0, +1),
      torus_topology(net_->topology()).out_channel(0, 1, +1),
  };
  Message m;
  std::set<ChannelId> leaders;
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<ChannelId> ordered = channels;
    policy->order(*net_, m, inj_vc, ordered, rng_);
    leaders.insert(ordered[0]);
  }
  EXPECT_EQ(leaders.size(), 2u);
}

TEST_F(SelectionTest, RandomIsAPermutationAndVaries) {
  const auto policy = make_selection(SelectionKind::Random);
  std::vector<ChannelId> channels{0, 1, 2, 3, 4, 5};
  Message m;
  std::set<std::vector<ChannelId>> orders;
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<ChannelId> ordered = channels;
    policy->order(*net_, m, 0, ordered, rng_);
    std::vector<ChannelId> sorted = ordered;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, channels);  // a permutation, nothing lost
    orders.insert(ordered);
  }
  EXPECT_GT(orders.size(), 5u);
}

TEST_F(SelectionTest, LowestIndexSorts) {
  const auto policy = make_selection(SelectionKind::LowestIndex);
  std::vector<ChannelId> channels{5, 1, 3};
  Message m;
  policy->order(*net_, m, 0, channels, rng_);
  EXPECT_EQ(channels, (std::vector<ChannelId>{1, 3, 5}));
}

TEST_F(SelectionTest, OneElementListIsUnchangedAndDrawsNothing) {
  // The SelectionPolicy::order contract the network's route memo relies on:
  // ordering a single candidate is skipped, which must not move the stream.
  const VcId net_vc =
      net_->phys(torus_topology(net_->topology()).out_channel(1, 1, +1))
          .first_vc;
  const VcId inj_vc = net_->phys(net_->injection_channel(0)).first_vc;
  Message m;
  for (const SelectionKind kind :
       {SelectionKind::PreferStraight, SelectionKind::Random,
        SelectionKind::LowestIndex}) {
    const auto policy = make_selection(kind);
    SCOPED_TRACE(policy->name());
    for (const VcId in_vc : {net_vc, inj_vc}) {
      for (ChannelId ch = 0;
           ch < static_cast<ChannelId>(net_->num_network_channels()); ++ch) {
        std::vector<ChannelId> one{ch};
        const std::uint64_t before = rng_.draws();
        policy->order(*net_, m, in_vc, one, rng_);
        EXPECT_EQ(one, std::vector<ChannelId>{ch});
        EXPECT_EQ(rng_.draws(), before);
      }
    }
  }
}

TEST_F(SelectionTest, PreferStraightPartitionMatchesStableSort) {
  // PreferStraight shuffles, then moves the channels in the header's current
  // dimension to the front, keeping both groups' order. The reference
  // repeats the shuffle and applies std::stable_sort with the same key, on
  // seeded random lists (repeats allowed) from network and injection VCs.
  const auto policy = make_selection(SelectionKind::PreferStraight);
  const KAryNCube& topo = torus_topology(net_->topology());
  std::vector<VcId> in_vcs{net_->phys(net_->injection_channel(0)).first_vc};
  for (int dim = 0; dim < topo.dimensions(); ++dim) {
    for (const int dir : {+1, -1}) {
      in_vcs.push_back(net_->phys(topo.out_channel(0, dim, dir)).first_vc);
    }
  }
  const auto channels =
      static_cast<std::uint32_t>(net_->num_network_channels());
  Pcg32 lists(7);
  Message m;
  for (std::uint64_t trial = 0; trial < 500; ++trial) {
    std::vector<ChannelId> list(lists.bounded(9));
    for (ChannelId& ch : list) {
      ch = static_cast<ChannelId>(lists.bounded(channels));
    }
    const VcId in_vc =
        in_vcs[lists.bounded(static_cast<std::uint32_t>(in_vcs.size()))];

    Pcg32 rng(trial);
    std::vector<ChannelId> got = list;
    policy->order(*net_, m, in_vc, got, rng);

    Pcg32 ref_rng(trial);
    std::vector<ChannelId> want = list;
    for (std::size_t i = want.size(); i > 1; --i) {
      std::swap(want[i - 1],
                want[ref_rng.bounded(static_cast<std::uint32_t>(i))]);
    }
    const PhysChannel& in_ch = net_->phys(net_->vc(in_vc).channel);
    if (in_ch.kind == ChannelKind::Network) {
      std::stable_sort(want.begin(), want.end(),
                       [&](ChannelId a, ChannelId b) {
                         const int ka = net_->phys(a).dim == in_ch.dim ? 0 : 1;
                         const int kb = net_->phys(b).dim == in_ch.dim ? 0 : 1;
                         return ka < kb;
                       });
    }
    EXPECT_EQ(got, want) << "trial " << trial;
    EXPECT_EQ(rng.draws(), ref_rng.draws()) << "trial " << trial;
  }
}

TEST_F(SelectionTest, PolicyNamesAreStable) {
  EXPECT_EQ(make_selection(SelectionKind::PreferStraight)->name(),
            "PreferStraight");
  EXPECT_EQ(make_selection(SelectionKind::Random)->name(), "Random");
  EXPECT_EQ(make_selection(SelectionKind::LowestIndex)->name(), "LowestIndex");
}

}  // namespace
}  // namespace flexnet
