/**
 * @file
 * A sliding-window reliable delivery protocol over an unreliable
 * medium — the "low-level protocol processing" whose cost motivates
 * the message coprocessor (§3.3–§3.4).
 *
 * One ReliableChannel carries data packets in a single direction
 * between two nodes; acknowledgements flow back over the same (faulty)
 * medium.  The sender keeps at most windowSize packets in flight,
 * retransmits on a per-packet timeout with exponential backoff, and
 * the receiver suppresses duplicates by sequence number and delivers
 * each message exactly once.  Messages are independent datagrams (as
 * in the 925 kernel, where every request and reply stands alone), so
 * a first good copy is delivered immediately rather than held behind
 * an earlier gap; acknowledgements are cumulative over the contiguous
 * prefix, so a lost ack is repaired by any later one.
 *
 * Crucially for the thesis' argument, the channel never burns CPU
 * time itself: every protocol step (send processing, receipt
 * checking, ack generation and processing, timeout service) is issued
 * through the Hooks as a kernel activity, so its processing and
 * shared-memory cost lands on whichever processor the node's
 * architecture assigns to communication — the host under
 * Architecture I, the message coprocessor under II–IV.  "Who pays for
 * retransmission processing" is thereby a measured quantity.
 */

#ifndef HSIPC_SIM_NET_RELIABLE_HH
#define HSIPC_SIM_NET_RELIABLE_HH

#include <cstdint>
#include <deque>
#include <map>
#include <set>

#include "common/obs/probe.hh"
#include "sim/des/event_queue.hh"
#include "sim/net/faults.hh"

namespace hsipc::sim
{

/**
 * A message plus its header on the wire, in bytes: every data packet,
 * whether a reliable channel sends it or the kernel puts it on an
 * ideal medium directly.
 */
inline constexpr int packetBytes = 48;

/** Reliable, exactly-once delivery of independent messages one way. */
class ReliableChannel
{
  public:
    //! Retransmission backoff ceiling; an initial timeout above it is
    //! its own ceiling.
    static constexpr double rtoMaxUs = 80000;

    struct Config
    {
        int srcNode = 0;
        int dstNode = 1;
        int windowSize = 8;    //!< max unacked packets in flight
        double rtoUs = 5000;   //!< initial retransmission timeout
        int ackBytes = 16;     //!< acknowledgement packet size

        // Protocol processing costs, in host-speed microseconds on
        // the node's communication processor.
        double sendProcUs = 120;    //!< header build + checksum
        double recvProcUs = 120;    //!< checksum verify + seq check
        double ackProcUs = 60;      //!< generate or absorb an ack
        double timeoutProcUs = 100; //!< timer service before a resend
        int busAccesses = 6; //!< shared-memory accesses per step
    };

    /**
     * Run one protocol step as a kernel activity on the named node
     * (srcNode or dstNode), then continue.
     */
    using Exec = std::function<void(int node, const char *activity,
                                    double procUs, int priority,
                                    EventQueue::Callback done)>;

    /** Put @p bytes on the raw medium in the named direction. */
    using RawSend =
        std::function<void(int bytes, EventQueue::Callback arrive)>;

    struct Hooks
    {
        Exec exec;
        RawSend mediumToDst; //!< data packets, src -> dst
        RawSend mediumToSrc; //!< acknowledgements, dst -> src
    };

    struct Stats
    {
        long accepted = 0;  //!< messages handed to send()
        long delivered = 0; //!< exactly-once deliveries upward
        long dataTransmissions = 0; //!< incl. retransmissions
        long retransmissions = 0;
        long timeoutsFired = 0;
        long duplicatesDropped = 0; //!< suppressed by seq number
        long corruptDiscarded = 0;  //!< failed the checksum on receipt
        long acksSent = 0;
    };

    /**
     * With a tracer in @p sinks, the channel records its protocol
     * events (send/retransmit/timeout/ack/deliver/discard instants,
     * window occupancy) on a track named "net.nS->nD".  Observational
     * only.
     */
    ReliableChannel(EventQueue &eq, const Config &cfg,
                    FaultInjector &faults, Hooks hooks,
                    const obs::Sinks &sinks)
        : eq(eq), cfg(cfg), faults(faults), hooks(std::move(hooks)),
          tracer(sinks.tracer)
    {
        if (tracer)
            traceTrack = tracer->track(
                "net.n" + std::to_string(cfg.srcNode) + "->n" +
                std::to_string(cfg.dstNode));
    }

    /**
     * Per-event observer for windowed timelines: called with a
     * stable event key ("dataTx", "retx", "deliver", "ack") and the
     * amount the matching Stats counter grew by, at the simulated
     * instant the counter moved.  Observational only — binning these
     * calls by timestamp is what makes a timeline series' integral
     * equal the whole-run ledger exactly.
     */
    using EventObserver =
        std::function<void(const char *event, double n)>;

    void setEventObserver(EventObserver cb)
    {
        observer = std::move(cb);
    }

    /**
     * Reliably deliver one message; @p deliver fires at the receiving
     * node exactly once.  @p msgId (0 = none) is the message's
     * lifetime id: every transmission of the packet — including
     * retransmissions after a timeout — carries it, so the recovery
     * chain stays attributed to the original message in the trace.
     */
    void send(EventQueue::Callback deliver, long msgId = 0);

    const Stats &stats() const { return counts; }
    long inFlight() const { return nextSeq - windowBase; }

    /** Messages transmitted at least once but not yet acknowledged. */
    long
    windowPending() const
    {
        return static_cast<long>(unacked.size());
    }

    /** Messages accepted but still waiting for a window slot. */
    long
    backlogSize() const
    {
        return static_cast<long>(backlog.size());
    }

  private:
    /** Sender-side record of an unacknowledged packet. */
    struct Pending
    {
        EventQueue::Callback deliver;
        long msgId = 0; //!< lifetime id of the carried message
        int retries = 0;
        std::uint64_t generation = 0; //!< invalidates stale timers
    };

    void pump();
    void transmit(long seq, bool retransmit);
    void onTimeout(long seq, std::uint64_t generation);
    void arriveData(long seq, bool corrupted);
    void sendAck();
    void arriveAck(long ackNum, bool corrupted);
    Tick rto(int retries) const;
    void note(const char *event, long msgId = 0);

    void
    observe(const char *event, double n)
    {
        if (observer)
            observer(event, n);
    }

    EventQueue &eq;
    Config cfg;
    FaultInjector &faults;
    Hooks hooks;
    Stats counts;
    trace::Tracer *tracer = nullptr;
    int traceTrack = -1;
    EventObserver observer; //!< null unless a timeline is recording

    // Sender state.
    long nextSeq = 0;    //!< next sequence number to assign
    long windowBase = 0; //!< lowest unacknowledged sequence number
    std::map<long, Pending> unacked;
    //! Sends beyond the window: (deliver, msgId) awaiting a slot.
    std::deque<std::pair<EventQueue::Callback, long>> backlog;

    // Receiver state: the contiguous prefix [0, nextExpected) has
    // been received; receivedAhead holds delivered packets beyond it.
    long nextExpected = 0;
    std::set<long> receivedAhead;
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_NET_RELIABLE_HH
