/**
 * @file
 * The simulator's per-layer ledger, read from outside: engine-profile
 * tracks mapped to the repository's modules, plus the Outcome's own
 * topology and reliable-channel ledgers.
 *
 * Track -> layer map (every track must map; an unknown one is an
 * error, so a new component cannot silently drop out of the ledger):
 *
 *   nX.busTcb, nX.busKb      node.bus   shared-memory bus grants
 *   nX.hostY, nX.mp          node.proc  processor chunks (kernel logic
 *                                       runs inside these)
 *   nX.nicIn, nX.nicOut      node.nic   NIC / DMA engines
 *   wire                     topo       the network medium / fabric
 *   sim                      net        unclaimed events: kickoffs,
 *                                       arrivals, protocol timers
 */

#ifndef PERFBENCH_DES_LEDGER_HH
#define PERFBENCH_DES_LEDGER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel/ipc_sim.hh"

namespace perfbench
{

enum class Layer { Bus, Proc, Nic, Topo, Net };
constexpr std::size_t kLayers = 5;

/** Map a profile track name to its layer; false when unmapped. */
bool layerOf(const std::string &track, Layer &layer);

/** Sums over the traced runs of one pass. */
struct DesLedger
{
    std::uint64_t events = 0;      //!< executed events (profile pops)
    std::uint64_t spills = 0;      //!< pooled + oversize callback spills
    std::uint64_t comparisons = 0; //!< heap-order tests
    std::uint64_t maxPending = 0;  //!< peak pending-set population
    std::array<std::uint64_t, kLayers> layerEvents{};
    std::array<double, kLayers> layerWallNs{}; //!< sampled wall time
    long roundTrips = 0;
    long linkMsgs = 0;
    long routerQueuePeak = 0;
    long retransmissions = 0;
    long acks = 0;
    long timeouts = 0;
    //! Tracks no layer claims, and other ledger inconsistencies.
    std::vector<std::string> errors;

    /** Fold one traced run in. */
    void add(const hsipc::sim::Outcome &out);

    /** Sampled wall share of @p l (0 without samples). */
    double wallShare(Layer l) const;
};

} // namespace perfbench

#endif // PERFBENCH_DES_LEDGER_HH
