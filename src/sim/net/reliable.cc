#include "sim/net/reliable.hh"

#include <algorithm>

#include "sim/check/test_hooks.hh"
#include "sim/node/processor.hh"

namespace hsipc::sim
{

void
ReliableChannel::note(const char *event, long msgId)
{
    if (tracer)
        tracer->instant(traceTrack, event, eq.now(), "proto", msgId);
}

void
ReliableChannel::send(EventQueue::Callback deliver, long msgId)
{
    ++counts.accepted;
    backlog.emplace_back(std::move(deliver), msgId);
    pump();
}

void
ReliableChannel::pump()
{
    while (!backlog.empty() && inFlight() < cfg.windowSize) {
        const long seq = nextSeq++;
        unacked[seq].deliver = std::move(backlog.front().first);
        unacked[seq].msgId = backlog.front().second;
        backlog.pop_front();
        transmit(seq, false);
    }
    if (tracer)
        tracer->counter(traceTrack, "inFlight", eq.now(),
                        static_cast<double>(inFlight()));
}

Tick
ReliableChannel::rto(int retries) const
{
    const double ceiling = std::max(rtoMaxUs, cfg.rtoUs);
    double us = cfg.rtoUs;
    for (int i = 0; i < retries && us < ceiling; ++i)
        us *= 2;
    return usToTicks(std::min(us, ceiling));
}

void
ReliableChannel::transmit(long seq, bool retransmit)
{
    auto it = unacked.find(seq);
    if (it == unacked.end())
        return;
    ++counts.dataTransmissions;
    observe("dataTx", 1);
    if (retransmit) {
        const long by = 1 + check::testHooks().retransmissionMiscount;
        counts.retransmissions += by;
        observe("retx", static_cast<double>(by));
    }
    // Every copy of the packet carries the original message's id, so
    // a recovery chain (timeout, resend, late delivery) stays one
    // message's story in the trace.
    note(retransmit ? "retransmit" : "send", it->second.msgId);
    const std::uint64_t gen = ++it->second.generation;
    hooks.exec(
        cfg.srcNode, retransmit ? "protoResend" : "protoSend",
        cfg.sendProcUs, prioTask, [this, seq, gen]() {
            auto self = unacked.find(seq);
            // Acked or re-sent while the activity sat in the
            // processor queue.
            if (self == unacked.end() ||
                self->second.generation != gen)
                return;
            if (!faults.nodeUp(cfg.srcNode, eq.now())) {
                faults.noteCrashDrop();
            } else {
                for (const FaultInjector::Copy &c : faults.judge()) {
                    auto go = [this, seq, corrupted = c.corrupted]() {
                        hooks.mediumToDst(
                            packetBytes, [this, seq, corrupted]() {
                                arriveData(seq, corrupted);
                            });
                    };
                    if (c.extraDelay > 0)
                        eq.scheduleAfter(c.extraDelay, go);
                    else
                        go();
                }
            }
            // The timer runs whether or not the packet made it out:
            // a crashed source retries once its window is over.
            eq.scheduleAfter(rto(self->second.retries),
                             [this, seq, gen]() {
                                 onTimeout(seq, gen);
                             });
        });
}

void
ReliableChannel::onTimeout(long seq, std::uint64_t gen)
{
    auto it = unacked.find(seq);
    if (it == unacked.end() || it->second.generation != gen)
        return; // acknowledged (or superseded) in time
    ++counts.timeoutsFired;
    note("timeout", it->second.msgId);
    // A packet that keeps timing out after the backoff ceiling is a
    // partition or a mis-tuned RTO, not routine loss; say so, but
    // never once per retry — a long outage fires thousands.
    if (it->second.retries >= 10)
        hsipc_warn_every(1000, "packet seq " + std::to_string(seq) +
                                   " still unacknowledged after " +
                                   std::to_string(it->second.retries) +
                                   " retries");
    hooks.exec(cfg.srcNode, "protoTimeout", cfg.timeoutProcUs,
               prioInterrupt, [this, seq, gen]() {
                   auto self = unacked.find(seq);
                   if (self == unacked.end() ||
                       self->second.generation != gen)
                       return;
                   ++self->second.retries;
                   transmit(seq, true);
               });
}

void
ReliableChannel::arriveData(long seq, bool corrupted)
{
    if (!faults.nodeUp(cfg.dstNode, eq.now())) {
        faults.noteCrashDrop();
        return;
    }
    hooks.exec(
        cfg.dstNode, "protoRecv", cfg.recvProcUs, prioInterrupt,
        [this, seq, corrupted]() {
            if (corrupted) {
                ++counts.corruptDiscarded;
                note("corruptDiscard");
                return; // no ack: the sender's timer recovers it
            }
            if (seq < nextExpected || receivedAhead.count(seq) > 0) {
                ++counts.duplicatesDropped;
                note("dupDrop");
                // Re-ack so a lost ack cannot stall the window.
                sendAck();
                return;
            }
            note("deliver", unacked.at(seq).msgId);
            // First good copy.  Messages are independent datagrams,
            // so deliver immediately instead of holding it behind an
            // earlier gap; only the ack stays cumulative.
            receivedAhead.insert(seq);
            while (receivedAhead.erase(nextExpected) > 0)
                ++nextExpected;
            ++counts.delivered;
            observe("deliver", 1);
            // First delivery of this sequence number (later copies
            // take the dupDrop path above), so the callback can be
            // moved out rather than copied.
            EventQueue::Callback cb =
                std::move(unacked.at(seq).deliver);
            sendAck();
            cb();
        });
}

void
ReliableChannel::sendAck()
{
    ++counts.acksSent;
    observe("ack", 1);
    note("ack");
    hooks.exec(
        cfg.dstNode, "protoAck", cfg.ackProcUs, prioInterrupt,
        [this]() {
            const long ackNum = nextExpected; // cumulative
            if (!faults.nodeUp(cfg.dstNode, eq.now())) {
                faults.noteCrashDrop();
                return;
            }
            for (const FaultInjector::Copy &c : faults.judge()) {
                auto go = [this, ackNum, corrupted = c.corrupted]() {
                    hooks.mediumToSrc(cfg.ackBytes,
                                      [this, ackNum, corrupted]() {
                                          arriveAck(ackNum, corrupted);
                                      });
                };
                if (c.extraDelay > 0)
                    eq.scheduleAfter(c.extraDelay, go);
                else
                    go();
            }
        });
}

void
ReliableChannel::arriveAck(long ackNum, bool corrupted)
{
    if (!faults.nodeUp(cfg.srcNode, eq.now())) {
        faults.noteCrashDrop();
        return;
    }
    hooks.exec(cfg.srcNode, "protoAck", cfg.ackProcUs, prioInterrupt,
               [this, ackNum, corrupted]() {
                   if (corrupted) {
                       ++counts.corruptDiscarded;
                       return;
                   }
                   if (ackNum <= windowBase)
                       return; // stale cumulative ack
                   unacked.erase(unacked.begin(),
                                 unacked.lower_bound(ackNum));
                   windowBase = ackNum;
                   pump();
               });
}

} // namespace hsipc::sim
