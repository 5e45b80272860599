/**
 * @file
 * Recycled, zero-filled storage for the tag arrays of one memory
 * system.
 *
 * A paper-default 16-node system holds 25.5 MiB of CacheLines, and
 * the methodology builds a fresh system for every perturbed run.
 * Value-initialising that storage on each construction cost more
 * host time than the warm-up that followed it (mostly minor page
 * faults). Instead, all-zero bytes are an empty line (see
 * CacheLine), and each MemSystem takes every L1 and L2 tag array
 * from one TagArena:
 *
 *  - A fresh arena is an anonymous mapping, zero by construction;
 *    nothing is written to it. It is advised MADV_HUGEPAGE, so first
 *    touch faults in 2 MiB extents instead of 4 KiB pages.
 *  - Contract: the user hands every byte it took back zero before
 *    the arena dies. CacheArray does so by zeroing the sets it wrote
 *    (a short run writes a few percent of them), so a released arena
 *    costs nothing to reuse.
 *  - A released arena goes to a process-wide pool, and acquire() of
 *    the same size takes it back as is. Reuse avoids refaulting the
 *    pages during the next run.
 *  - Pool bound: a fresh mapping first evicts (unmaps) every pooled
 *    arena. Pooled + live arena bytes therefore never exceed the
 *    peak of live arena bytes, and a pool of arenas nobody asks for
 *    does not stay resident. Runs of one shape, the common case,
 *    always hit.
 */

#ifndef VARSIM_MEM_TAG_ARENA_HH
#define VARSIM_MEM_TAG_ARENA_HH

#include <cstddef>
#include <cstdint>

namespace varsim
{
namespace mem
{

class TagArena
{
  public:
    /** acquire() @p bytes of zero-filled storage (none for 0). */
    explicit TagArena(std::size_t bytes);

    /** release() the storage, which the user left zero, to the pool. */
    ~TagArena();

    TagArena(const TagArena &) = delete;
    TagArena &operator=(const TagArena &) = delete;

    /**
     * Carve the next @p bytes (a multiple of 8) off the arena. The
     * bytes are zero until the caller writes them.
     */
    void *take(std::size_t bytes);

    /** Bytes this arena was acquired with. */
    std::size_t size() const { return bytes_; }

    /** Bytes handed out by take() so far. */
    std::size_t used() const { return used_; }

    /** Process-wide pool accounting (one consistent snapshot). */
    struct PoolStats
    {
        std::size_t liveBytes = 0;     ///< held by live arenas
        std::size_t pooledBytes = 0;   ///< released, kept mapped
        std::size_t peakLiveBytes = 0; ///< max liveBytes ever
        std::uint64_t mapped = 0;      ///< fresh mappings made
        std::uint64_t reused = 0;      ///< acquisitions from the pool
        std::uint64_t evicted = 0;     ///< pooled arenas unmapped
    };

    static PoolStats poolStats();

    /** Unmap every pooled arena (tests: force a fresh mapping). */
    static void trimPool();

  private:
    /**
     * A released arena of exactly @p bytes (zero by the contract), or
     * a fresh huge-page-advised mapping (zero, nothing written).
     */
    static std::uint8_t *acquire(std::size_t bytes);

    /** Return an arena to the pool. */
    static void release(std::uint8_t *base, std::size_t bytes);

    std::uint8_t *base_;
    std::size_t bytes_;
    std::size_t used_ = 0;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_TAG_ARENA_HH
