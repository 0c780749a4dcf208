/**
 * @file
 * GTPN models of non-local conversations (Figs 6.10/6.11/6.13/6.14).
 *
 * Non-local conversations are modeled as two coupled nets (§6.6.3):
 * a client node holding all N clients and a server node holding all N
 * servers.  The client model contains a surrogate geometric delay of
 * mean S_d for the round trip at the server node; the server model
 * contains a surrogate client-think delay of mean C_d.  The two are
 * solved alternately by solveNonlocal() in solution.hh.
 *
 * Network interrupts preempt the processor that owns the network
 * interface (the host in architecture I, the message coprocessor in
 * II-IV): all stages executing on that processor carry a frequency
 * gate "(no interrupt pending) and (interrupt service not firing)",
 * exactly as the thesis' transition tables specify.
 */

#ifndef HSIPC_MODELS_NONLOCAL_MODEL_HH
#define HSIPC_MODELS_NONLOCAL_MODEL_HH

#include "core/gtpn/net.hh"
#include "core/models/local_model.hh"
#include "core/models/processing_times.hh"

namespace hsipc::models
{

/** A built client-node model (Figs 6.10/6.13). */
struct ClientModel
{
    gtpn::PetriNet net;
    Stage serverDelay{};          //!< surrogate S_d, ungated
    double timeScale = 1.0;

    double
    throughputPerUs(double lambda_usage) const
    {
        return lambda_usage / timeScale;
    }
};

/** A built server-node model (Figs 6.11/6.14). */
struct ServerModel
{
    gtpn::PetriNet net;
    Stage clientWait{};           //!< surrogate C_d, ungated
    gtpn::TransId arrival = -1;   //!< clientWait.exit
    gtpn::PlaceId queue = -1;     //!< customers-in-system bookkeeping
    double timeScale = 1.0;
};

/**
 * Build the client-node model.
 *
 * @param p           transition means
 * @param clients     number of client processes at the node
 * @param serverDelay surrogate server delay S_d, microseconds
 * @param hostTokens  host processors at the node (2 for the
 *                    validation configuration of §6.8)
 * @param timeScale   microseconds per model time unit
 */
ClientModel buildClientModel(const NonlocalClientParams &p, int clients,
                             double serverDelay, int hostTokens = 1,
                             double timeScale = 1.0);

/**
 * Build the server-node model.
 *
 * @param p           transition means
 * @param servers     number of server processes at the node
 * @param clientWait  surrogate client wait C_d, microseconds
 * @param computeTime server computation X per conversation, us
 * @param hostTokens  host processors at the node
 * @param timeScale   microseconds per model time unit
 */
ServerModel buildServerModel(const NonlocalServerParams &p, int servers,
                             double clientWait, double computeTime,
                             int hostTokens = 1, double timeScale = 1.0);

} // namespace hsipc::models

#endif // HSIPC_MODELS_NONLOCAL_MODEL_HH
