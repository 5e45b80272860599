/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Used for both L1 and L2 caches. Only tags and metadata are stored;
 * varsim never simulates data values. Replacement decisions are
 * deterministic (LRU by a monotone use counter, ties impossible), so
 * the array contributes no nondeterminism of its own — a requirement
 * of the paper's methodology, where the injected latency perturbation
 * must be the sole random input (Section 3.3).
 */

#ifndef VARSIM_MEM_CACHE_ARRAY_HH
#define VARSIM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "mem/tag_arena.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace varsim
{
namespace mem
{

/** MOSI stable coherence states (plus Invalid). */
enum class LineState : std::uint8_t
{
    Invalid = 0,
    Shared,    ///< clean, possibly multiple copies
    Owned,     ///< dirty, responsible for data, sharers may exist
    Modified,  ///< dirty, exclusive
};

/** True if the state confers ownership (must supply data on snoop). */
constexpr bool
isOwnerState(LineState s)
{
    return s == LineState::Owned || s == LineState::Modified;
}

/** True if the state permits reads. */
constexpr bool
isValidState(LineState s)
{
    return s != LineState::Invalid;
}

/**
 * One cache line's metadata.
 *
 * All-zero bytes are an empty line: a way is valid iff its state is
 * not Invalid, whatever its tag holds. Tag arrays therefore live in
 * zero-filled TagArena storage and are never initialised line by
 * line. Block 0 is a legal block, so lookups test the state of
 * every way whose tag matches.
 */
struct CacheLine
{
    sim::Addr blockAddr = 0;
    LineState state = LineState::Invalid;
    /** Implementation-defined per-cache bits (e.g. L1 copy flags). */
    std::uint8_t aux = 0;
    /** Monotone use stamp for LRU. */
    std::uint64_t lastUse = 0;

    bool valid() const { return state != LineState::Invalid; }
};

static_assert(std::is_trivially_copyable_v<CacheLine> &&
                  sizeof(CacheLine) % 8 == 0,
              "tag arenas hold CacheLines as raw zeroed bytes");

/**
 * Set-associative tag array.
 */
class CacheArray : public sim::Serializable
{
  public:
    /**
     * A standalone array, with storage from a private arena.
     *
     * @param size_bytes  total capacity
     * @param assoc       ways per set (1 = direct mapped)
     * @param block_bytes line size (power of two)
     */
    CacheArray(std::size_t size_bytes, std::size_t assoc,
               std::size_t block_bytes);

    /** As above, with storage carved from @p arena. */
    CacheArray(std::size_t size_bytes, std::size_t assoc,
               std::size_t block_bytes, TagArena &arena);

    /** Zeroes the sets it wrote: the storage goes back all zero. */
    ~CacheArray() override;

    CacheArray(const CacheArray &) = delete;
    CacheArray &operator=(const CacheArray &) = delete;

    /** Arena bytes an array of this capacity takes. */
    static std::size_t
    arenaBytes(std::size_t size_bytes, std::size_t block_bytes)
    {
        return block_bytes == 0 ? 0
                                : size_bytes / block_bytes *
                                      sizeof(CacheLine);
    }

    /** Block-align an address. */
    sim::Addr
    blockAlign(sim::Addr addr) const
    {
        return addr & ~static_cast<sim::Addr>(blockBytes - 1);
    }

    /**
     * Look up @p block_addr (must be block-aligned).
     * @return the line, or nullptr if not present (Invalid lines are
     *         "not present").
     *
     * This is the hottest function in the simulator (every L1 probe,
     * every L2 request and every bus snoop lands here), so the set
     * index is shift/mask (no division). Every way tests tag and
     * state: an empty way's tag is 0, a legal block address, and a
     * freshly allocated line stays "not present" until the caller
     * sets its state.
     */
    CacheLine *
    find(sim::Addr block_addr)
    {
        CacheLine *line = lines.data() + setIndex(block_addr) * ways;
        for (std::size_t w = 0; w < ways; ++w, ++line) {
            if (line->blockAddr == block_addr &&
                line->state != LineState::Invalid)
                return line;
        }
        return nullptr;
    }

    const CacheLine *
    find(sim::Addr block_addr) const
    {
        return const_cast<CacheArray *>(this)->find(block_addr);
    }

    /** find() + LRU update on hit. */
    CacheLine *
    findAndTouch(sim::Addr block_addr)
    {
        CacheLine *line = find(block_addr);
        if (line != nullptr)
            touch(*line);
        return line;
    }

    /** Mark @p line most recently used. */
    void touch(CacheLine &line);

    /**
     * Allocate a line for @p block_addr, evicting the LRU valid line
     * of the set if no way is free.
     *
     * @param victim  out-parameter: a copy of the evicted line, valid
     *                only when the return's second member is true.
     * @return pair (line pointer, hadVictim)
     */
    std::pair<CacheLine *, bool> allocate(sim::Addr block_addr,
                                          CacheLine &victim);

    /**
     * Invalidate a line: zero it, except for the LRU stamp, which
     * checkpoint images carry for invalid lines too.
     */
    void invalidate(CacheLine &line);

    /** Geometry accessors. */
    std::size_t numSets() const { return sets; }
    std::size_t numWays() const { return ways; }
    std::size_t blockSize() const { return blockBytes; }

    /** Count of currently valid lines (O(capacity); for tests). */
    std::size_t countValid() const;

    /** Visit every valid line (O(capacity)); used to rebuild
     *  derived structures (e.g. directory sharer sets) on restore. */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const CacheLine &line : lines)
            if (line.valid())
                fn(line);
    }

    void serialize(sim::CheckpointOut &cp) const override;
    void unserialize(sim::CheckpointIn &cp) override;

  private:
    /** Storage from @p arena, or from a private one when null. */
    CacheArray(std::size_t size_bytes, std::size_t assoc,
               std::size_t block_bytes, TagArena *arena);

    void
    markDirty(std::size_t set)
    {
        dirtySets[set >> 6] |= std::uint64_t{1} << (set & 63);
    }

    /** Zero every dirty set and mark it clean. */
    void clearDirtySets();

    /** Shift/mask index: blockBytes and sets are powers of two. */
    std::size_t
    setIndex(sim::Addr block_addr) const
    {
        return static_cast<std::size_t>(block_addr >> blockShift) &
               setMask;
    }

    std::size_t sets;
    std::size_t ways;
    std::size_t blockBytes;
    std::size_t blockShift = 0; ///< log2(blockBytes)
    std::size_t setMask = 0;    ///< sets - 1
    std::uint64_t useCounter = 0;
    std::unique_ptr<TagArena> ownArena; ///< standalone arrays only
    std::span<CacheLine> lines; // sets * ways, row-major by set
    /**
     * Bit s is set once set s is written (allocate, restore). Every
     * other set is all zero bytes, so handing the storage back zero
     * costs the sets this array wrote, not its capacity: a 300-txn
     * OLTP run on the paper system fills under 2% of its L2 lines.
     */
    std::vector<std::uint64_t> dirtySets;
};

} // namespace mem
} // namespace varsim

#endif // VARSIM_MEM_CACHE_ARRAY_HH
