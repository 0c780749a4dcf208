/**
 * @file
 * GTPN models of local conversations (Figs 6.9 and 6.12).
 *
 * The workload of §6.3: N clients loop doing blocking remote-invocation
 * sends, N servers loop doing receive/compute/reply; a conversation is
 * one rendezvous.  Large constant processing times are approximated by
 * geometric delays (Fig 6.7): each stage is a pair of delay-1
 * transitions sharing their input places, the "exit" member firing
 * with probability 1/mean per time unit.
 *
 * A model can be built at a coarser granularity via @c timeScale: all
 * stage means are divided by it and one model time unit then
 * represents timeScale microseconds.  Because the geometric
 * approximation's coefficient of variation is essentially independent
 * of the mean, rescaling preserves mean throughput while shrinking the
 * Markov chain's mixing time.
 */

#ifndef HSIPC_MODELS_LOCAL_MODEL_HH
#define HSIPC_MODELS_LOCAL_MODEL_HH

#include <string>
#include <vector>

#include "core/gtpn/net.hh"
#include "core/models/processing_times.hh"

namespace hsipc::models
{

/** Name of the round-trip throughput resource in all chapter-6 nets. */
inline const char *lambdaResource = "Lambda";

/** The two transitions of a geometric stage. */
struct Stage
{
    gtpn::TransId exit;
    gtpn::TransId loop;
};

/**
 * Add a geometric stage to @p net: a pair of delay-1 transitions
 * sharing the input places (Fig 6.7).  The "exit" member fires with
 * probability 1/mean per unit and moves tokens from @p from to
 * @p to; the "loop" member returns them.  Shared resource tokens
 * (e.g. the host) listed in @p held are consumed and returned each
 * unit, which yields the processor-sharing discipline the thesis
 * adopts (§6.7.1).  When @p gateExpr (may be null) evaluates to zero
 * both members freeze, modeling preemption of the executing
 * processor.  The exit transition carries @p resource.
 */
Stage addStage(gtpn::PetriNet &net, const std::string &name, double mean,
               const std::vector<gtpn::PlaceId> &from,
               const std::vector<gtpn::PlaceId> &to,
               const std::vector<gtpn::PlaceId> &held,
               gtpn::Expr gateExpr = nullptr,
               const std::string &resource = "");

/**
 * Move the ungated stage @p s of @p net to mean @p mean (>= 1 model
 * unit): its exit and loop frequencies become exactly what addStage()
 * gives an ungated stage of that mean.  The chapter-6 fixed point
 * moves its surrogate stages with it.
 */
void setStageMean(gtpn::PetriNet &net, const Stage &s, double mean);

/** A built local-conversation model. */
struct LocalModel
{
    gtpn::PetriNet net;
    double timeScale = 1.0;

    /**
     * Convert the analyzer's usage of the Lambda resource into
     * round trips per microsecond.
     */
    double
    throughputPerUs(double lambda_usage) const
    {
        return lambda_usage / timeScale;
    }
};

/**
 * Build the local-conversation net for the given architecture.
 *
 * @param p             transition means (already contention adjusted)
 * @param conversations number of simultaneous client/server pairs
 * @param computeTime   server computation X per conversation, in us
 * @param timeScale     model granularity, microseconds per time unit
 * @param hostTokens    host processors in the node — the chapter-7
 *                      extension to shared-memory multiprocessor
 *                      nodes (Fig 7.1), one message coprocessor
 *                      serving a collection of hosts
 */
LocalModel buildLocalModel(const LocalParams &p, int conversations,
                           double computeTime, double timeScale = 1.0,
                           int hostTokens = 1);

/**
 * Scale the message-coprocessor stage means by 1/factor, modeling an
 * MP @p factor times faster (or slower) than the host — the
 * front-end-processor speed question of the chapter-1 related work.
 * Architecture I has no MP and is returned unchanged.
 */
LocalParams scaleMpSpeed(LocalParams p, double factor);

/**
 * The front-end-processor offload question of §1.2 (Woodside 84,
 * Vernon 86): move a fraction of the communication processing to the
 * front-end and ask what throughput results.
 *
 * Derived from architecture II's stage means: each MP stage keeps
 * @p fraction of its work on the front-end (running at @p mpSpeed
 * times the host's rate) and returns the remainder to the host
 * syscall stages.  fraction = 1 with mpSpeed = 1 reproduces
 * architecture II; fraction = 0 degenerates to a uniprocessor
 * carrying architecture II's total cost.
 */
LocalParams offloadParams(double fraction, double mpSpeed = 1.0);

} // namespace hsipc::models

#endif // HSIPC_MODELS_LOCAL_MODEL_HH
