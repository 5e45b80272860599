/**
 * @file
 * Unit tests of the recycled tag arena: a fresh arena is zero, a
 * released one comes back as its user left it, large ones start on
 * a huge-page boundary, a fresh mapping evicts the pool first,
 * and the pool bound (pooled + live bytes never above the peak of
 * live bytes) holds while threads build and destroy memory systems
 * of mixed sizes. That cache arrays hand their bytes back zero is
 * checked on real runs in tests/core/test_simulation.cc.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "mem/mem_system.hh"
#include "mem/tag_arena.hh"

namespace varsim
{
namespace mem
{
namespace
{

bool
allZero(const std::uint8_t *p, std::size_t n)
{
    return std::all_of(p, p + n, [](std::uint8_t b) { return b == 0; });
}

TEST(TagArena, FreshArenaIsZeroAndReleasedOneIsReused)
{
    TagArena::trimPool();
    const std::size_t bytes = 3 * 4096 + 8 * sizeof(CacheLine);
    const auto s0 = TagArena::poolStats();
    void *first = nullptr;
    {
        TagArena a(bytes);
        auto *p = static_cast<std::uint8_t *>(a.take(bytes));
        EXPECT_TRUE(allZero(p, bytes));
        p[5] = 1;
        p[5] = 0; // the contract: hand the bytes back zero
        first = p;
    }
    const auto s1 = TagArena::poolStats();
    EXPECT_EQ(s1.mapped, s0.mapped + 1);
    EXPECT_EQ(s1.pooledBytes, bytes) << "released, not unmapped";

    TagArena b(bytes);
    EXPECT_EQ(TagArena::poolStats().reused, s1.reused + 1);
    EXPECT_EQ(b.take(bytes), first);
}

TEST(TagArena, HugeArenasStartOnAHugePageBoundary)
{
    const std::size_t bytes = (std::size_t{5} << 20) + 4096;
    TagArena a(bytes);
    const auto base = reinterpret_cast<std::uintptr_t>(a.take(8));
    EXPECT_EQ(base % (std::size_t{2} << 20), 0u);
    EXPECT_EQ(a.used(), 8u);
    EXPECT_EQ(a.size(), bytes);
}

TEST(TagArena, FreshMappingEvictsPooledArenasFirst)
{
    TagArena::trimPool();
    const std::size_t small = 64 * 1024;
    { TagArena first(small); }
    auto s = TagArena::poolStats();
    ASSERT_EQ(s.pooledBytes, small);
    // A size the pool cannot serve maps fresh and evicts the pool.
    const auto evicted = s.evicted;
    TagArena second(2 * small);
    s = TagArena::poolStats();
    EXPECT_EQ(s.evicted, evicted + 1);
    EXPECT_EQ(s.pooledBytes, 0u);
    EXPECT_LE(s.liveBytes + s.pooledBytes, s.peakLiveBytes);
}

TEST(TagArena, PoolBoundHoldsAcrossThreadsAndSizes)
{
    std::atomic<int> violations{0};
    auto check = [&] {
        const auto s = TagArena::poolStats();
        if (s.liveBytes + s.pooledBytes > s.peakLiveBytes)
            ++violations;
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 6; ++i) {
                MemConfig cfg; // paper geometry: 128 KB L1s, 4 MB L2
                cfg.numNodes = (t + i) % 2 != 0 ? 16 : 8;
                sim::EventQueue eq;
                {
                    MemSystem ms("mem", eq, cfg);
                    check();
                }
                check();
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(violations.load(), 0);
    const auto s = TagArena::poolStats();
    EXPECT_LE(s.liveBytes + s.pooledBytes, s.peakLiveBytes);
    MemConfig cfg16;
    cfg16.numNodes = 16;
    EXPECT_LE(s.peakLiveBytes, 4 * MemSystem::tagArenaBytes(cfg16));
}

TEST(TagArena, MemSystemArenaIsSizedExactly)
{
    MemConfig cfg;
    cfg.numNodes = 16;
    // 16 nodes x (2 x 2048 L1 lines + 65536 L2 lines): 25.5 MiB.
    EXPECT_EQ(MemSystem::tagArenaBytes(cfg),
              std::size_t{16} * (2 * 2048 + 65536) * sizeof(CacheLine));
}

TEST(TagArenaDeathTest, TakeBeyondCapacityPanics)
{
    TagArena a(64);
    a.take(56);
    EXPECT_DEATH(a.take(16), "cannot give 16 more after 56");
}

} // namespace
} // namespace mem
} // namespace varsim
