/**
 * @file
 * Fault injection for the simulated network medium.
 *
 * The thesis justifies the message coprocessor by the cost of
 * "low-level protocol processing" — acknowledgements, timeouts and
 * retransmissions (§3.3–§3.4) — but that work only exists when the
 * medium can fail.  A FaultPlan makes it fail on purpose: packets are
 * dropped, corrupted, duplicated or delayed (reordered) with seeded
 * pseudo-random draws, and whole nodes can be scheduled to crash and
 * recover.  A crash is modeled at the network boundary (a fail-stop
 * NIC): while a node's window is open every packet to or from it is
 * lost, its kernel protocol state survives, and recovery is driven
 * purely by the reliability layer's retransmissions.
 *
 * The same injector is applied uniformly to the fixed-delay wire and
 * to the token-ring medium, and to data and acknowledgement packets
 * alike.
 */

#ifndef HSIPC_SIM_NET_FAULTS_HH
#define HSIPC_SIM_NET_FAULTS_HH

#include <cstdint>
#include <vector>

#include "common/obs/probe.hh"
#include "common/rng.hh"
#include "common/time.hh"
#include "sim/des/event_queue.hh"

namespace hsipc::sim
{

/** One scheduled node outage, in simulated microseconds. */
struct CrashWindow
{
    int node = 0;
    double startUs = 0;
    double endUs = 0;

    friend bool operator==(const CrashWindow &,
                           const CrashWindow &) = default;
};

/** The fault model of one experiment (all rates are per packet). */
struct FaultPlan
{
    double dropRate = 0;      //!< packet vanishes in the medium
    double corruptRate = 0;   //!< packet arrives, checksum fails
    double duplicateRate = 0; //!< a second copy trails the original
    double reorderRate = 0;   //!< packet is held back @c reorderDelayUs
    double reorderDelayUs = 200; //!< extra delay of a reordered packet
    double duplicateLagUs = 50;  //!< how far the duplicate trails
    std::vector<CrashWindow> crashes;

    /** True when any fault can occur (the stack is pay-for-use). */
    bool
    active() const
    {
        return dropRate > 0 || corruptRate > 0 || duplicateRate > 0 ||
               reorderRate > 0 || !crashes.empty();
    }
};

/** Applies a FaultPlan to individual packets, with its own RNG. */
class FaultInjector
{
  public:
    /** One surviving copy of an injected packet. */
    struct Copy
    {
        Tick extraDelay = 0; //!< added before entering the medium
        bool corrupted = false;
    };

    struct Stats
    {
        long injected = 0;   //!< packets passed through the injector
        long dropped = 0;    //!< lost in the medium
        long corrupted = 0;  //!< delivered with a failing checksum
        long duplicated = 0; //!< delivered twice
        long reordered = 0;  //!< delayed past later traffic
        long crashDrops = 0; //!< lost at a crashed node's boundary
    };

    FaultInjector(const FaultPlan &plan, std::uint64_t seed)
        : plan(plan), rng(seed)
    {}

    /**
     * With a tracer in @p sinks, trace every injected fault as an
     * instant on a "medium" track, timestamped from @p clock.
     * Scheduled crash windows are recorded up front (crash/recover
     * instants).  Observational only: the injector's random draws are
     * unchanged.
     */
    void observe(const obs::Sinks &sinks, const EventQueue &clock);

    /**
     * Decide the fate of one packet entering the medium: each returned
     * copy traverses it (an empty result means the packet was
     * dropped).  Draws from the RNG only for the fault classes whose
     * rate is nonzero, so an all-zero plan consumes no randomness.
     */
    std::vector<Copy> judge();

    /** Is @p node outside all of its crash windows at @p now? */
    bool nodeUp(int node, Tick now) const;

    /** Record a packet lost at a crashed node's boundary. */
    void
    noteCrashDrop()
    {
        ++counts.crashDrops;
        note("crashDrop");
    }

    const Stats &stats() const { return counts; }
    const FaultPlan &faultPlan() const { return plan; }

  private:
    void note(const char *event);

    FaultPlan plan;
    Rng rng;
    Stats counts;
    trace::Tracer *tracer = nullptr;
    int traceTrack = -1;
    const EventQueue *clock = nullptr;
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_NET_FAULTS_HH
