/**
 * @file
 * A token-passing ring network model (the 4 Mb/s IBM-style token ring
 * interconnecting the 925 nodes, §3.1/§4.3).
 *
 * One token circulates; a station may transmit only while holding it.
 * A packet's latency is therefore the wait for the token to rotate to
 * the source, plus serialization at the ring rate, plus propagation
 * around to the destination.  The model serializes the medium exactly
 * (one transmission at a time) without simulating individual bits.
 */

#ifndef HSIPC_SIM_TOKEN_RING_HH
#define HSIPC_SIM_TOKEN_RING_HH

#include <algorithm>
#include <deque>
#include <utility>

#include "sim/des/event_queue.hh"

namespace hsipc::sim
{

/** The shared ring medium. */
class TokenRing
{
  public:
    struct Config
    {
        int stations = 2;
        double megabitsPerSec = 4.0; //!< ring data rate
        Tick hopDelay = 2 * tickUs;  //!< per-station latency (repeater)
    };

    TokenRing(EventQueue &eq, Config cfg) : eq(eq), config(cfg)
    {
        hsipc_assert(cfg.stations >= 2);
        hsipc_assert(cfg.megabitsPerSec > 0);
    }

    /** Serialization time for @p bytes at the ring rate. */
    Tick
    transmitTime(int bytes) const
    {
        const double us =
            static_cast<double>(bytes) * 8.0 / config.megabitsPerSec;
        return usToTicks(us);
    }

    /** Hops from @p from to @p to in ring direction. */
    int
    hops(int from, int to) const
    {
        return (to - from + config.stations) % config.stations;
    }

    /**
     * Send @p bytes from @p src to @p dst; @p onDelivered fires when
     * the packet has fully arrived.
     */
    void
    send(int src, int dst, int bytes, EventQueue::Callback onDelivered)
    {
        hsipc_assert(src >= 0 && src < config.stations);
        hsipc_assert(dst >= 0 && dst < config.stations && dst != src);

        // The token reaches the source once the medium is free and the
        // token has rotated from wherever it was left.
        const Tick free_at = std::max(eq.now(), tokenFreeAt);
        const Tick rotation =
            static_cast<Tick>(hops(tokenAt, src)) * config.hopDelay;
        const Tick grant = free_at + rotation;
        const Tick tx = transmitTime(bytes);
        const Tick propagation =
            static_cast<Tick>(hops(src, dst)) * config.hopDelay;

        busyTicks += tx;
        // The whole transmission is booked now even though it happens
        // at [grant, grant+tx); remember the future part so
        // utilization() can exclude what has not elapsed yet.
        while (!booked.empty() && booked.front().second <= eq.now())
            booked.pop_front();
        booked.emplace_back(grant, grant + tx);
        tokenFreeAt = grant + tx;
        tokenAt = src;
        ++packets;
        waitAcc += static_cast<double>(grant - eq.now());

        eq.schedule(grant + tx + propagation, std::move(onDelivered));
    }

    /** Fraction of elapsed time the medium carried data. */
    double
    utilization() const
    {
        const Tick span = eq.now();
        if (span <= 0)
            return 0.0;
        // Exclude the parts of booked transmissions that have not
        // elapsed yet (a backed-up ring books several in advance).
        Tick future = 0;
        for (const auto &[begin, end] : booked) {
            if (end > span)
                future += end - std::max(begin, span);
        }
        return static_cast<double>(busyTicks - future) /
               static_cast<double>(span);
    }

    /** Total wait for the token across packets, in ticks. */
    double tokenWaitTicks() const { return waitAcc; }

    long packetCount() const { return packets; }

  private:
    EventQueue &eq;
    Config config;
    int tokenAt = 0;
    Tick tokenFreeAt = 0;
    Tick busyTicks = 0;
    std::deque<std::pair<Tick, Tick>> booked; //!< in-flight tx spans
    long packets = 0;
    double waitAcc = 0;
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_TOKEN_RING_HH
