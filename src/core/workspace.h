/**
 * @file
 * The allocation-free steady state: core::Arena and core::Workspace.
 *
 * The paper's headline win is keeping point-cloud intermediates
 * on-chip instead of round-tripping DRAM; the software analogue is
 * keeping a request's intermediates in memory that is already warm
 * instead of round-tripping the heap allocator. Every hot-path layer
 * draws its temporaries from a Workspace:
 *
 *   - Arena: a monotonic bump allocator for transient scratch that
 *     lives no longer than one request (FPS distance tables, partition
 *     split records, inverse permutations). reset() rewinds the bump
 *     cursor but keeps every chunk, so a warm request of the same
 *     shape replays into memory allocated by the cold one and touches
 *     the heap zero times. Allocation is thread-safe (block ops
 *     allocate per-leaf scratch from inside pool tasks); all
 *     allocations are 64-byte aligned and size-rounded so the total
 *     footprint is independent of allocation order.
 *
 *   - Workspace: one Arena plus named slots — persistent, default-
 *     constructed objects (vectors, tensors, whole result structs)
 *     keyed by a short name, created on first use and reused across
 *     requests. Slots hold buffers whose *capacity* must survive
 *     reset() (a cleared std::vector keeps its allocation), which is
 *     what turns the second same-shape request into zero heap
 *     allocations: every resize/assign fits the capacity the first
 *     request grew.
 *
 * Contract: slot() and reset() are owner-only (one request at a time);
 * arena().allocate() may be called concurrently from pool tasks
 * processing that request. Growth happens only on first-seen larger
 * shapes — see ops/, nn/network.cc, and serve/async_pipeline.h for
 * the layers drawing from it, serve/scheduler.h for the per-shard
 * slab that owns the serving path's workspaces, and
 * tests/test_workspace.cc for the counting-allocator proof.
 */

#ifndef FC_CORE_WORKSPACE_H
#define FC_CORE_WORKSPACE_H

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "common/logging.h"

namespace fc::core {

/**
 * Monotonic bump allocator over a chain of heap chunks.
 *
 * allocate() bumps within the active chunk, advances to the next
 * retained chunk when the active one is exhausted, and touches the
 * heap only when every retained chunk is full (cold growth). reset()
 * rewinds to the first chunk without releasing anything, so a
 * same-shape replay performs zero heap allocations. Memory is never
 * returned until destruction.
 */
class Arena
{
  public:
    /** Alignment (and size granularity) of every allocation: one
     *  cache line, so parallel writers never share a line and totals
     *  are independent of allocation order. */
    static constexpr std::size_t kAlignment = 64;

    Arena() = default;
    ~Arena() = default;

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * @p bytes of kAlignment-aligned storage, uninitialized. Valid
     * until reset(). Thread-safe. Zero-byte requests return a
     * non-null dummy.
     */
    void *allocate(std::size_t bytes);

    /** Typed uninitialized span of @p count elements. */
    template <typename T>
    std::span<T>
    allocSpan(std::size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without destructors");
        if (count == 0)
            return {};
        return {static_cast<T *>(allocate(count * sizeof(T))), count};
    }

    /** Typed span with every element set to @p fill. */
    template <typename T>
    std::span<T>
    allocSpan(std::size_t count, const T &fill)
    {
        std::span<T> s = allocSpan<T>(count);
        for (T &v : s)
            ::new (static_cast<void *>(&v)) T(fill);
        return s;
    }

    /** Construct one T in arena storage (no destructor will run). */
    template <typename T, typename... Args>
    T *
    create(Args &&...args)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is reclaimed without destructors");
        return ::new (allocate(sizeof(T))) T(std::forward<Args>(args)...);
    }

    /** Rewind the cursor; every chunk is retained for reuse. */
    void reset();

    /** Total chunk capacity held (the high-water footprint). */
    std::size_t bytesReserved() const;

    /** Bytes handed out since the last reset(). */
    std::size_t bytesUsed() const;

    /** Heap chunks held (steady state: stops growing). */
    std::size_t chunkCount() const;

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> storage; ///< unaligned base
        std::byte *data = nullptr;            ///< 64B-aligned start
        std::size_t capacity = 0;
    };

    mutable std::mutex mutex_;
    std::vector<Chunk> chunks_;
    std::size_t active_ = 0; ///< chunk currently being bumped
    std::size_t offset_ = 0; ///< bump cursor within the active chunk
    std::size_t used_ = 0;   ///< bytes handed out since reset()
};

/**
 * One Arena plus named, shape-keyed scratch slots.
 *
 * slot<T>(name) returns a persistent T default-constructed on first
 * use; the same name must always be requested with the same T.
 * Consumers resize slot containers to their current shape — repeated
 * same-shape use therefore reuses warm capacity, and growth happens
 * only on first-seen larger shapes. reset() starts a new request:
 * the arena rewinds, the slots persist.
 */
class Workspace
{
  public:
    Workspace() = default;

    Workspace(const Workspace &) = delete;
    Workspace &operator=(const Workspace &) = delete;

    Arena &arena() { return arena_; }

    /** Begin a new request: rewind the arena, keep every slot. */
    void reset() { arena_.reset(); }

    /** The named slot, default-constructed on first use. */
    template <typename T>
    T &
    slot(std::string_view name)
    {
        auto it = slots_.find(name);
        if (it == slots_.end()) {
            it = slots_
                     .emplace(std::string(name),
                              Slot{{new T(), [](void *p) {
                                        delete static_cast<T *>(p);
                                    }},
                                   &typeid(T)})
                     .first;
        }
        fc_assert(*it->second.type == typeid(T),
                  "workspace slot '%.*s' requested as %s but holds %s",
                  static_cast<int>(name.size()), name.data(),
                  typeid(T).name(), it->second.type->name());
        return *static_cast<T *>(it->second.object.get());
    }

    std::size_t slotCount() const { return slots_.size(); }

  private:
    struct Slot
    {
        std::unique_ptr<void, void (*)(void *)> object;
        const std::type_info *type;
    };

    Arena arena_;

    /** Ordered map with a transparent comparator: steady-state
     *  lookups by string_view never construct a std::string. */
    std::map<std::string, Slot, std::less<>> slots_;
};

} // namespace fc::core

#endif // FC_CORE_WORKSPACE_H
