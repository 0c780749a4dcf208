/**
 * @file
 * A move-only callable with small-buffer optimization for the event
 * queue's hot path.
 *
 * std::function heap-allocates once a capture outgrows its (library-
 * dependent, typically 16-24 byte) inline buffer — and nearly every
 * event the kernel simulator schedules captures `this` plus a few
 * ints, so the seed implementation paid one allocation per scheduled
 * event.  EventCallback stores captures up to 48 bytes inline (enough
 * for every callback on the simulator's steady-state path) and spills
 * larger ones to a per-thread free-list pool of fixed-size blocks, so
 * even spilled events stop allocating once the pool has warmed up.
 *
 * The type is move-only: events are scheduled exactly once, and a
 * copyable callable would silently forbid move-only captures (and
 * re-introduce allocation when copied).  Moves are pointer-sized for
 * spilled targets and delegate to the target's (required noexcept)
 * move constructor for inline ones.
 *
 * emplace() builds a new target in an existing callback.  The event
 * queue builds each scheduled callable in its slot that way, and the
 * bus builds a grant's continuation where it waits, so a target moves
 * once on the way in and once on the way out of the queue.
 */

#ifndef HSIPC_SIM_CALLABLE_HH
#define HSIPC_SIM_CALLABLE_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/obs/pool_counters.hh"

namespace hsipc::sim
{

namespace detail
{

/**
 * Per-thread free list of uniform blocks backing spilled callables.
 * Uniform sizing keeps release O(1) with no size bookkeeping; spills
 * larger than a block (rare, deeply nested captures) fall back to
 * plain operator new.  Thread-local because each simulation runs on
 * one thread — no locks, and ThreadSanitizer-clean when a sweep
 * runner executes many simulations concurrently.
 */
class SpillPool
{
  public:
    static constexpr std::size_t blockSize = 256;
    static constexpr std::size_t maxFreeBlocks = 1024;

    static SpillPool &
    instance()
    {
        thread_local SpillPool pool;
        return pool;
    }

    void *
    alloc()
    {
        if (!free_.empty()) {
            void *p = free_.back();
            free_.pop_back();
            return p;
        }
        ++obs::callbackPoolCounters().freshBlocks;
        return ::operator new(blockSize);
    }

    void
    release(void *p)
    {
        if (free_.size() < maxFreeBlocks)
            free_.push_back(p);
        else
            ::operator delete(p);
    }

    /** Blocks currently parked on this thread's free list (tests). */
    std::size_t freeBlocks() const { return free_.size(); }

    ~SpillPool()
    {
        for (void *p : free_)
            ::operator delete(p);
    }

  private:
    std::vector<void *> free_;
};

} // namespace detail

/** Move-only `void()` callable with 48 bytes of inline storage. */
class EventCallback
{
  public:
    /** Captures up to this size (and max_align_t-aligned) stay inline. */
    static constexpr std::size_t inlineCapacity = 48;

    EventCallback() noexcept = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, EventCallback> &&
                  std::is_invocable_r_v<void, D &>>>
    EventCallback(F &&f) // NOLINT: implicit like std::function
    {
        construct<D>(std::forward<F>(f));
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /**
     * Replace the target with @p f, built directly in this callback's
     * storage: the one move (or copy) of the target that construction
     * makes, and no relocation after it.  An EventCallback argument
     * must be an rvalue; it is moved in, which relocates its target
     * once.
     */
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  std::is_same_v<D, EventCallback> ||
                  std::is_invocable_r_v<void, D &>>>
    void
    emplace(F &&f)
    {
        if constexpr (std::is_same_v<D, EventCallback>) {
            *this = std::forward<F>(f);
        } else {
            reset();
            construct<D>(std::forward<F>(f));
        }
    }

    explicit operator bool() const noexcept { return ops != nullptr; }

    /** Invoke the target (const like std::function: targets may mutate). */
    void
    operator()() const
    {
        ops->invoke(const_cast<void *>(
            static_cast<const void *>(&storage)));
    }

  private:
    /**
     * Type-erased operations; one static instance per target type.
     * relocate/destroy are null when the operation reduces to a
     * memcpy/no-op: a callback is moved out of the event queue's
     * slot arena before it runs, and an indirect call
     * per move costs more than the move itself for the
     * pointer-plus-ints captures that dominate the simulator.
     */
    struct Ops
    {
        void (*invoke)(void *storage);
        //! Move the target from @p src storage into @p dst storage
        //! and destroy the source (noexcept by construction).  Null
        //! means the target is trivially relocatable: copy the raw
        //! storage bytes and do not touch the source again.
        void (*relocate)(void *src, void *dst) noexcept;
        //! Null means trivially destructible (nothing to do).
        void (*destroy)(void *storage);
    };

    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= inlineCapacity &&
        alignof(D) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D> struct InlineOps
    {
        static void
        invoke(void *s)
        {
            (*std::launder(reinterpret_cast<D *>(s)))();
        }
        static void
        relocate(void *src, void *dst) noexcept
        {
            D *from = std::launder(reinterpret_cast<D *>(src));
            ::new (dst) D(std::move(*from));
            from->~D();
        }
        static void
        destroy(void *s)
        {
            std::launder(reinterpret_cast<D *>(s))->~D();
        }
        static constexpr Ops ops{
            invoke,
            std::is_trivially_copyable_v<D> ? nullptr : relocate,
            std::is_trivially_destructible_v<D> ? nullptr : destroy};
    };

    //! Spilled targets store a pointer to a pool block (or a plain
    //! allocation when larger than a block) in the inline storage.
    template <typename D, bool pooled> struct SpilledOps
    {
        static D *&
        ptr(void *s)
        {
            return *static_cast<D **>(s);
        }
        static void
        invoke(void *s)
        {
            (*ptr(s))();
        }
        static void
        destroy(void *s)
        {
            D *target = ptr(s);
            target->~D();
            if constexpr (pooled)
                detail::SpillPool::instance().release(target);
            else
                ::operator delete(target);
        }
        // Relocation is a pointer copy — trivially relocatable.
        static constexpr Ops ops{invoke, nullptr, destroy};
    };

    template <typename D, typename F>
    void
    construct(F &&f)
    {
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(&storage)) D(std::forward<F>(f));
            ops = &InlineOps<D>::ops;
        } else if constexpr (sizeof(D) <= detail::SpillPool::blockSize &&
                             alignof(D) <=
                                 alignof(std::max_align_t)) {
            ++obs::callbackPoolCounters().pooledConstructs;
            void *block = detail::SpillPool::instance().alloc();
            *reinterpret_cast<D **>(&storage) =
                ::new (block) D(std::forward<F>(f));
            ops = &SpilledOps<D, true>::ops;
        } else {
            ++obs::callbackPoolCounters().oversizeConstructs;
            *reinterpret_cast<D **>(&storage) =
                new D(std::forward<F>(f));
            ops = &SpilledOps<D, false>::ops;
        }
    }

    void
    moveFrom(EventCallback &other) noexcept
    {
        ops = other.ops;
        if (ops) {
            if (ops->relocate)
                ops->relocate(&other.storage, &storage);
            else
                std::memcpy(&storage, &other.storage, inlineCapacity);
        }
        other.ops = nullptr;
    }

    void
    reset()
    {
        if (ops) {
            if (ops->destroy)
                ops->destroy(&storage);
            ops = nullptr;
        }
    }

    alignas(std::max_align_t) std::byte storage[inlineCapacity];
    const Ops *ops = nullptr;
};

} // namespace hsipc::sim

#endif // HSIPC_SIM_CALLABLE_HH
