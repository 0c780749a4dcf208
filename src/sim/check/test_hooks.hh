/**
 * @file
 * Test-only hooks into the simulator.
 *
 * The fuzzer's own ctest case must prove the invariant oracle can
 * catch a real bug — so it needs a way to *plant* one.  These hooks
 * are that plant: every member defaults to "off", in which state the
 * simulator behaves exactly as shipped (the guards compile to one
 * load-and-test on cold paths).  Nothing outside tests and the fuzz
 * driver may set them, and they are not thread-safe to mutate while
 * simulations run — set before a run, clear after.
 */

#ifndef HSIPC_SIM_CHECK_TEST_HOOKS_HH
#define HSIPC_SIM_CHECK_TEST_HOOKS_HH

#include <functional>

#include "common/time.hh"

namespace hsipc::sim
{

struct Experiment;

namespace check
{

/** The set of plantable defects and interceptors. */
struct TestHooks
{
    /**
     * Added to the retransmission counter on every counted
     * retransmission — a deliberate off-by-N in ReliableChannel's
     * accounting.  Any nonzero value breaks the first-transmission
     * conservation identity the oracle checks, so the fuzzer must
     * find and shrink it.
     */
    long retransmissionMiscount = 0;

    /**
     * Added to the RPC robustness layer's completed-request counter
     * on every completion — a deliberate off-by-N in the disposition
     * ledger.  Any nonzero value breaks the rpc.conservation identity
     * (offered = completed + shed + expired + lostToCrash +
     * inFlightAtEnd), so the oracle must catch and shrink it.
     */
    long rpcCompletionMiscount = 0;

    /**
     * Drops this many forwarded packets at topology routers — each
     * drop silently discards one arriving packet *without* touching
     * the router's `dropped` ledger (see topo/network.cc), leaving
     * received > forwarded + dropped + inFlight on that router.  The
     * topo.conservation invariant must catch the imbalance and the
     * fuzzer must shrink the configuration that exposed it.
     */
    long topoRouterDrop = 0;

    /**
     * Ticks the access loop (node/processor.cc) adds to the time of
     * the earliest pending callback event, and to the runUntil()
     * bound, when it decides what runs next — a deliberate overshoot
     * that runs steps past the next pending event, so an event
     * that should have seen (or contended for) the bus first no
     * longer does.  Traced runs take the per-access path, so the
     * determinism.traceIdentity oracle must catch the divergence and
     * the fuzzer must shrink it.  Read when an access loop starts.
     */
    Tick coStepSlackTicks = 0;

    /**
     * Makes a bus grant its waiting requests in FIFO order, ignoring
     * priority, while an access loop runs — a misgrant that lets a
     * task's access go before an interrupt's.  Traced runs take the
     * per-access path and grant by priority, so the
     * determinism.traceIdentity oracle must catch the divergence and
     * the fuzzer must shrink it.  Read when a Resource is built.
     */
    bool coStepFifoGrant = false;

    /**
     * Invoked at the top of runExperiment() when set.  May throw —
     * the exception-propagation tests for the sweep runner use this
     * to make a specific run in a parallel sweep fail.
     */
    std::function<void(const Experiment &)> beforeRun;
};

/** The process-wide hook instance (all members off by default). */
TestHooks &testHooks();

/** RAII reset-to-default for tests that set any hook. */
class ScopedTestHooks
{
  public:
    ScopedTestHooks() : saved(testHooks()) {}
    ~ScopedTestHooks() { testHooks() = saved; }
    ScopedTestHooks(const ScopedTestHooks &) = delete;
    ScopedTestHooks &operator=(const ScopedTestHooks &) = delete;

  private:
    TestHooks saved;
};

} // namespace check
} // namespace hsipc::sim

#endif // HSIPC_SIM_CHECK_TEST_HOOKS_HH
