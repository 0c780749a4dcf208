/**
 * @file
 * Processing-time data for the four node architectures of chapter 6.
 *
 * The thesis drives its GTPN models with processing times measured on
 * the 925 implementation (chapter 4):
 *
 *  - Architecture I   — uniprocessor (Fig 6.1),
 *  - Architecture II  — message coprocessor (Fig 6.2),
 *  - Architecture III — message coprocessor + smart bus (Fig 6.3),
 *  - Architecture IV  — partitioned smart bus (Fig 6.4).
 *
 * This header exposes (a) the per-round-trip step tables (Tables 6.4,
 * 6.6, 6.9, 6.11, 6.14, 6.16, 6.19, 6.21), (b) the derived transition
 * means actually used by the models (Tables 6.5/6.7/6.8 etc.), and
 * (c) the operation-cost comparison of Table 6.1.
 */

#ifndef HSIPC_MODELS_PROCESSING_TIMES_HH
#define HSIPC_MODELS_PROCESSING_TIMES_HH

#include <string>
#include <vector>

namespace hsipc::models
{

/** The four node architectures compared in chapter 6. */
enum class Arch { I = 1, II = 2, III = 3, IV = 4 };

/** Human-readable architecture name. */
std::string archName(Arch a);

/**
 * The 40-byte copy time on the M68000 (chapter 4), microseconds: the
 * extra buffer copy of the §6.8 validation configuration, charged by
 * both the GTPN models and the simulator.
 */
inline constexpr double extraCopyUs = 220.0;

/** One processing step of a round-trip conversation. */
struct Step
{
    const char *processor;   //!< "Host", "MP" or "DMA"
    const char *initiator;   //!< "Client", "Server", "Network interrupt"
    const char *number;      //!< the thesis' action number, e.g. "4a"
    const char *description;
    double processing;       //!< processor time, microseconds
    double kbAccess;         //!< kernel-buffer shared-memory time
    double tcbAccess;        //!< task-control-block shared-memory time
    bool workload;           //!< true for the Compute row (parameter X)

    /** Shared-memory access time (KB + TCB partitions combined). */
    double shmem() const { return kbAccess + tcbAccess; }

    /** Completion time without contention. */
    double best() const { return processing + shmem(); }

    /** Completion time when all overlapping activities contend. */
    double contention;
};

/**
 * The step table for one architecture and conversation kind.
 * @p local selects the local-conversation table.
 */
const std::vector<Step> &stepTable(Arch a, bool local);

/** Sum of "best" completion times of all non-workload steps. */
double roundTripBest(Arch a, bool local);

// --- Transition means used by the chapter-6 models ---------------------
//
// These are the values printed in the thesis' transition tables; they
// already include shared-memory contention from the low-level model of
// §6.6.2.  All times are microseconds.

/** Parameters of the local-conversation model (Figs 6.9/6.12). */
struct LocalParams
{
    Arch arch;
    // Architecture I lumps everything onto the host:
    double uniSend = 0;          //!< T0/T1 of Fig 6.9 (actions 1,7)
    double uniRecv = 0;          //!< T2/T3 (actions 2,6)
    double uniMatchReply = 0;    //!< T4/T5 without X (actions 3,5)
    // Architectures II-IV (Fig 6.12):
    double sendSyscall = 0;      //!< host: syscall send (+ restart client)
    double recvSyscall = 0;      //!< host: syscall receive (+ restart)
    double mpSend = 0;           //!< MP: process send
    double mpRecv = 0;           //!< MP: process receive
    double mpMatch = 0;          //!< MP: match client with server
    double hostReplyBase = 0;    //!< host: restart + reply, without X
    double mpReply = 0;          //!< MP: process reply
};

/** Parameters of the non-local client-node model (Figs 6.10/6.13). */
struct NonlocalClientParams
{
    Arch arch;
    double sendSyscall = 0;   //!< host (I: all send processing on host)
    double dispatch = 0;      //!< MP dispatch (the 1 microsecond T2)
    double mpSend = 0;        //!< MP: process send (II-IV only)
    double dmaOut = 0;
    double dmaIn = 0;
    double intrService = 0;   //!< cleanup + restart client on interrupt
};

/** Parameters of the non-local server-node model (Figs 6.11/6.14). */
struct NonlocalServerParams
{
    Arch arch;
    double recvSyscall = 0;   //!< host: receive syscall (I: whole receive)
    double mpRecv = 0;        //!< MP: process receive (II-IV only)
    double match = 0;         //!< interrupt: match client with server
    double replyBase = 0;     //!< host: restart + compute + reply, w/o X
    double mpReply = 0;       //!< MP: process reply (II-IV only)
    double dmaIn = 0;         //!< added to S_d outside the model
    double dmaOut = 0;        //!< added to S_d outside the model

    /** Mean receive-path time S_c overlapping the client's busy time. */
    double receivePath() const { return recvSyscall + mpRecv; }
};

LocalParams localParams(Arch a);
NonlocalClientParams nonlocalClientParams(Arch a);
NonlocalServerParams nonlocalServerParams(Arch a);

// --- Table 6.1: operation-cost comparison ------------------------------

/** One row of Table 6.1. */
struct OpCost
{
    const char *operation;
    double processingII;  //!< software implementation on Versabus
    double memoryII;
    double processingIII; //!< smart-bus primitive
    double memoryIII;
    const char *handshake;
};

/** Table 6.1 — queue/block operation costs, Arch II vs III. */
const std::vector<OpCost> &opCostTable();

} // namespace hsipc::models

#endif // HSIPC_MODELS_PROCESSING_TIMES_HH
