#include "mem/tag_arena.hh"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <new>
#include <vector>

#include "sim/logging.hh"

namespace varsim
{
namespace mem
{

namespace
{

/** A transparent huge page (x86-64 and aarch64 with 4 KiB pages). */
constexpr std::size_t kHugeBytes = std::size_t{2} << 20;

std::size_t
mappedBytes(std::size_t bytes)
{
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) / page * page;
}

/**
 * A fresh zero mapping of @p bytes. Mappings of at least one huge
 * page start on a 2 MiB boundary (one extent of slack is reserved and
 * trimmed off again), so each whole 2 MiB extent can become one huge
 * page; the page-rounded size is kept exact, so the partial tail
 * stays in small pages and resident memory does not grow.
 */
std::uint8_t *
mapFresh(std::size_t bytes)
{
    const std::size_t len = mappedBytes(bytes);
    const std::size_t slack = len >= kHugeBytes ? kHugeBytes : 0;
    void *p = mmap(nullptr, len + slack, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    auto *base = static_cast<std::uint8_t *>(p);
    if (slack != 0) {
        const auto addr = reinterpret_cast<std::uintptr_t>(p);
        const std::size_t head =
            ((addr + kHugeBytes - 1) & ~(kHugeBytes - 1)) - addr;
        if (head != 0)
            munmap(base, head);
        base += head;
        if (slack != head)
            munmap(base + len, slack - head);
        // Advisory: without THP the arena still works, page by page.
        madvise(base, len, MADV_HUGEPAGE);
    }
    return base;
}

void
unmap(std::uint8_t *base, std::size_t bytes)
{
    // Poisoning would outlive the mapping and hit its next tenant.
    ASAN_UNPOISON_MEMORY_REGION(base, bytes);
    munmap(base, mappedBytes(bytes));
}

struct Pooled
{
    std::uint8_t *base;
    std::size_t bytes;
};

struct Pool
{
    std::mutex mu;
    std::vector<Pooled> free; ///< released arenas, oldest first
    TagArena::PoolStats stats;
};

Pool &
pool()
{
    // Never destroyed: a MemSystem may outlive static destruction.
    static Pool *p = new Pool;
    return *p;
}

/** Empty the pool (caller holds p.mu); the caller unmaps the result. */
std::vector<Pooled>
drainLocked(Pool &p)
{
    std::vector<Pooled> out;
    out.swap(p.free);
    p.stats.pooledBytes = 0;
    p.stats.evicted += out.size();
    return out;
}

} // anonymous namespace

// Under ASan, bytes not handed out by take() and every byte of a
// released arena are poisoned, so a stale CacheLine pointer into a
// dead MemSystem's tags faults instead of reading a recycled arena.
TagArena::TagArena(std::size_t bytes)
    : base_(acquire(bytes)), bytes_(bytes)
{
    ASAN_POISON_MEMORY_REGION(base_, bytes_);
}

TagArena::~TagArena()
{
    ASAN_POISON_MEMORY_REGION(base_, bytes_);
    release(base_, bytes_);
}

void *
TagArena::take(std::size_t bytes)
{
    VARSIM_ASSERT(bytes % 8 == 0 && bytes <= bytes_ - used_,
                  "tag arena of %zu bytes cannot give %zu more after "
                  "%zu",
                  bytes_, bytes, used_);
    void *p = base_ + used_;
    used_ += bytes;
    ASAN_UNPOISON_MEMORY_REGION(p, bytes);
    return p;
}

std::uint8_t *
TagArena::acquire(std::size_t bytes)
{
    if (bytes == 0)
        return nullptr;
    Pool &p = pool();
    std::uint8_t *reuse = nullptr;
    std::vector<Pooled> evict;
    {
        std::lock_guard<std::mutex> g(p.mu);
        PoolStats &s = p.stats;
        s.liveBytes += bytes;
        // Newest first: its bytes are the likeliest still cached.
        for (auto it = p.free.end(); it != p.free.begin();) {
            --it;
            if (it->bytes == bytes) {
                reuse = it->base;
                p.free.erase(it);
                s.pooledBytes -= bytes;
                ++s.reused;
                break;
            }
        }
        if (reuse == nullptr) {
            // A miss evicts the whole pool: pooled arenas of other
            // sizes would otherwise stay resident beside the new one
            // while the heap grows elsewhere (mixed 8- and 16-node
            // runs raised peak RSS by 15% with a peak-sized pool).
            s.peakLiveBytes = std::max(s.peakLiveBytes, s.liveBytes);
            evict = drainLocked(p);
            ++s.mapped;
        }
    }
    if (reuse != nullptr)
        return reuse;
    for (const Pooled &e : evict)
        unmap(e.base, e.bytes);
    try {
        return mapFresh(bytes);
    } catch (...) {
        std::lock_guard<std::mutex> g(p.mu);
        p.stats.liveBytes -= bytes;
        throw;
    }
}

void
TagArena::release(std::uint8_t *base, std::size_t bytes)
{
    if (bytes == 0)
        return;
    Pool &p = pool();
    std::lock_guard<std::mutex> g(p.mu);
    p.stats.liveBytes -= bytes;
    p.stats.pooledBytes += bytes;
    p.free.push_back({base, bytes});
}

TagArena::PoolStats
TagArena::poolStats()
{
    Pool &p = pool();
    std::lock_guard<std::mutex> g(p.mu);
    return p.stats;
}

void
TagArena::trimPool()
{
    Pool &p = pool();
    std::vector<Pooled> evict;
    {
        std::lock_guard<std::mutex> g(p.mu);
        evict = drainLocked(p);
    }
    for (const Pooled &e : evict)
        unmap(e.base, e.bytes);
}

} // namespace mem
} // namespace varsim
