#include "sim/topo/topology.hh"

namespace hsipc::sim::topo
{

std::pair<int, int>
placeConversation(const Topology &t, long index)
{
    const int n = t.nodes;
    const int i = static_cast<int>(index % n);
    switch (t.placement) {
      case 1: // round-robin: neighbours around the node ring
        return {i, (i + 1) % n};
      case 2: // locality: client and server co-resident
        return {i, i};
      default: // classic degenerate layout: clients n0, servers n1
        return {0, 1 % n};
    }
}

} // namespace hsipc::sim::topo
