/**
 * @file
 * Error-reporting helpers in the spirit of gem5's base/logging.hh.
 *
 * panic()  — an internal invariant was violated (a bug in this library);
 *            aborts so a debugger or core dump can capture the state.
 * fatal()  — the caller supplied an impossible configuration; exits
 *            with status 1.
 * warn()   — something is suspicious but simulation can continue.
 */

#ifndef HSIPC_COMMON_LOGGING_HH
#define HSIPC_COMMON_LOGGING_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>

namespace hsipc
{

[[noreturn]] inline void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

[[noreturn]] inline void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

/**
 * Hook through which every warning is routed.  Unset (the default),
 * warnings print to stderr; tests install a hook to assert that a
 * warning fired (and to keep expected warnings out of test output).
 */
inline std::function<void(const std::string &)> &
warnHook()
{
    static std::function<void(const std::string &)> hook;
    return hook;
}

inline void
warnImpl(const char *file, int line, const std::string &msg)
{
    if (warnHook()) {
        warnHook()(msg);
        return;
    }
    std::fprintf(stderr, "warn: %s (%s:%d)\n", msg.c_str(), file, line);
}

} // namespace hsipc

#define hsipc_panic(msg) ::hsipc::panicImpl(__FILE__, __LINE__, (msg))
#define hsipc_fatal(msg) ::hsipc::fatalImpl(__FILE__, __LINE__, (msg))
#define hsipc_warn(msg) ::hsipc::warnImpl(__FILE__, __LINE__, (msg))

/**
 * Warn only the first time this call site is reached.  The flag is
 * atomic so call sites shared by concurrently running simulations
 * (e.g. under the parallel sweep runner) stay race-free.
 */
#define hsipc_warn_once(msg)                                                \
    do {                                                                    \
        static std::atomic<bool> hsipc_warned_once_{false};                 \
        if (!hsipc_warned_once_.exchange(true,                              \
                                         std::memory_order_relaxed)) {      \
            hsipc_warn(msg);                                                \
        }                                                                   \
    } while (0)

/**
 * Rate-limited warning for hot loops: the first occurrence and every
 * @p every-th after it are reported (with the running occurrence
 * count appended), the rest are suppressed — so a fault storm cannot
 * flood stderr.  The counter is per call site (atomic, see
 * hsipc_warn_once) and never resets.
 */
#define hsipc_warn_every(every, msg)                                        \
    do {                                                                    \
        static std::atomic<long> hsipc_warn_count_{0};                      \
        static_assert((every) > 0, "rate limit must be positive");          \
        const long hsipc_warn_prev_ = hsipc_warn_count_.fetch_add(          \
            1, std::memory_order_relaxed);                                  \
        if (hsipc_warn_prev_ % (every) == 0) {                              \
            hsipc_warn(std::string(msg) + " (occurrence " +                 \
                       std::to_string(hsipc_warn_prev_ + 1) + ")");         \
        }                                                                   \
    } while (0)

namespace hsipc
{

/**
 * hsipc_assert()'s failure path, kept out of line so that a check in a
 * hot function costs its caller one test and branch, not the inlined
 * string building of the message.
 */
[[noreturn]] __attribute__((noinline, cold)) inline void
assertFailed(const char *file, int line, const char *cond)
{
    panicImpl(file, line, std::string("assertion failed: ") + cond);
}

} // namespace hsipc

/** Assert an internal invariant; active in all build types. */
#define hsipc_assert(cond)                                                  \
    do {                                                                    \
        if (!(cond)) [[unlikely]]                                           \
            ::hsipc::assertFailed(__FILE__, __LINE__, #cond);               \
    } while (0)

#endif // HSIPC_COMMON_LOGGING_HH
