/**
 * @file
 * Integration tests of the memory hierarchy: MOSI snooping protocol
 * transitions, the paper's latencies (Section 3.2.1: 180 ns memory
 * fetch, 125 ns cache-to-cache, plus the 12 ns L2-to-core service),
 * NACK/retry behaviour, writebacks, DRAM queuing, and the latency
 * perturbation of Section 3.3.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "mem/mem_system.hh"

namespace varsim
{
namespace mem
{
namespace
{

struct TestClient : public MemClient
{
    explicit TestClient(sim::EventQueue &q) : eq(&q) {}

    void
    memResponse(std::uint64_t tag) override
    {
        responses.emplace_back(tag, eq->curTick());
    }

    sim::Tick
    lastResponseTick() const
    {
        return responses.empty() ? sim::maxTick
                                 : responses.back().second;
    }

    sim::EventQueue *eq;
    std::vector<std::pair<std::uint64_t, sim::Tick>> responses;
};

MemConfig
smallConfig()
{
    MemConfig c;
    c.numNodes = 4;
    c.l1Size = 512;       // 8 blocks, tiny so evictions are easy
    c.l1Assoc = 1;
    c.l2Size = 4096;      // 64 blocks
    c.l2Assoc = 2;
    c.perturbMaxNs = 0;   // deterministic timing for exact checks
    return c;
}

class MemSystemTest : public ::testing::Test
{
  protected:
    void
    build(const MemConfig &cfg)
    {
        ms = std::make_unique<MemSystem>("mem", eq, cfg);
        for (std::size_t n = 0; n < cfg.numNodes; ++n) {
            clients.push_back(std::make_unique<TestClient>(eq));
            ms->icache(n).setClient(clients.back().get());
            ms->dcache(n).setClient(clients.back().get());
        }
    }

    /** Issue an access and run to completion; returns latency. */
    sim::Tick
    accessAndWait(std::size_t node, sim::Addr addr, bool write)
    {
        if (write)
            writers[addr].insert(node);
        const sim::Tick start = eq.curTick();
        if (ms->dcache(node).tryAccess(addr, write))
            return 0;
        issued.emplace_back(node, nextTag);
        ms->dcache(node).access({addr, write, false, nextTag++});
        eq.run();
        return clients[node]->lastResponseTick() - start;
    }

    /**
     * Checkpoint the quiescent system and replace it with a fresh
     * one built from @p cfg and restored from that image.
     */
    void
    restoreInto(const MemConfig &cfg)
    {
        sim::CheckpointOut out;
        ms->serialize(out);
        clients.clear();
        issued.clear();
        build(cfg);
        sim::CheckpointIn in(out.bytes());
        ms->unserialize(in);
    }

    /**
     * The random tester's invariants for @p blocks: I1 one owner at
     * most, I2 M is exclusive, I3 every issued access answered once,
     * I4 M only at a node that wrote, I5 quiescent, I6 the bus's
     * holder filter names every node with a valid copy.
     */
    void
    expectCoherent(const std::vector<sim::Addr> &blocks)
    {
        EXPECT_EQ(ms->pendingTransactions(), 0u) << "I5";
        for (const auto &[node, tag] : issued) {
            std::size_t answers = 0;
            for (const auto &r : clients[node]->responses)
                answers += r.first == tag;
            EXPECT_EQ(answers, 1u) << "I3: tag " << tag;
        }
        for (const sim::Addr addr : blocks) {
            const std::uint64_t holders = ms->bus().holdersOf(addr);
            int owners = 0, valid = 0, modified = -1;
            for (std::size_t n = 0; n < ms->config().numNodes; ++n) {
                const LineState st = ms->l2(n).snoopState(addr);
                if (!isValidState(st))
                    continue;
                ++valid;
                owners += isOwnerState(st);
                if (st == LineState::Modified)
                    modified = static_cast<int>(n);
                EXPECT_NE(holders & (std::uint64_t{1} << n), 0u)
                    << "I6: block " << std::hex << addr
                    << " valid at node " << std::dec << n;
            }
            EXPECT_LE(owners, 1) << "I1: block " << std::hex << addr;
            if (modified >= 0) {
                EXPECT_EQ(valid, 1) << "I2: block " << std::hex << addr;
                EXPECT_EQ(writers[addr].count(
                              static_cast<std::size_t>(modified)),
                          1u)
                    << "I4: block " << std::hex << addr;
            }
        }
    }

    sim::EventQueue eq;
    std::unique_ptr<MemSystem> ms;
    std::vector<std::unique_ptr<TestClient>> clients;
    std::vector<std::pair<std::size_t, std::uint64_t>> issued;
    std::map<sim::Addr, std::set<std::size_t>> writers;
    std::uint64_t nextTag = 1;
};

TEST_F(MemSystemTest, ColdMissFetchesFromMemory)
{
    build(smallConfig());
    // order(0) + traversal(50) + dram(80) + traversal(50) +
    // l2-to-core(12) = 192.
    EXPECT_EQ(accessAndWait(0, 0x10000, false), 192u);
    const MemStats s = ms->totalStats();
    EXPECT_EQ(s.memoryFetches, 1u);
    EXPECT_EQ(s.cacheToCache, 0u);
    EXPECT_EQ(s.l1Misses, 1u);
}

TEST_F(MemSystemTest, SecondAccessHitsInL1)
{
    build(smallConfig());
    accessAndWait(0, 0x10000, false);
    EXPECT_TRUE(ms->dcache(0).tryAccess(0x10000, false));
    EXPECT_TRUE(ms->dcache(0).tryAccess(0x10020, false))
        << "same 64B block must hit";
}

TEST_F(MemSystemTest, L2HitAfterL1Eviction)
{
    build(smallConfig());
    const sim::Addr a = 0x10000;
    accessAndWait(0, a, false);
    // Evict `a` from the direct-mapped 512B L1 (conflict at +512)
    // while staying within a different L2 set region... 0x10200
    // conflicts in L1 (512B apart) but not in the 4KB 2-way L2.
    accessAndWait(0, a + 512, false);
    EXPECT_FALSE(ms->dcache(0).tryAccess(a, false));
    EXPECT_EQ(accessAndWait(0, a, false),
              smallConfig().l2HitLatency);
}

TEST_F(MemSystemTest, StoreObtainsExclusiveOwnership)
{
    build(smallConfig());
    accessAndWait(0, 0x20000, true);
    EXPECT_EQ(ms->l2(0).snoopState(0x20000), LineState::Modified);
    EXPECT_TRUE(ms->dcache(0).tryAccess(0x20000, true));
}

TEST_F(MemSystemTest, CacheToCacheTransfer)
{
    build(smallConfig());
    accessAndWait(0, 0x20000, true); // node0: Modified
    // node1 read: order(0)+traversal(50)+owner(25)+traversal(50)
    // +l2-to-core(12) = 137.
    EXPECT_EQ(accessAndWait(1, 0x20000, false), 137u);
    const MemStats s = ms->totalStats();
    EXPECT_EQ(s.cacheToCache, 1u);
    // Old owner downgraded M -> O; requester Shared.
    EXPECT_EQ(ms->l2(0).snoopState(0x20000), LineState::Owned);
    EXPECT_EQ(ms->l2(1).snoopState(0x20000), LineState::Shared);
}

TEST_F(MemSystemTest, RemoteGetMInvalidatesAllCopies)
{
    build(smallConfig());
    accessAndWait(0, 0x20000, false);
    accessAndWait(1, 0x20000, false);
    accessAndWait(2, 0x20000, true); // invalidates 0 and 1
    EXPECT_EQ(ms->l2(0).snoopState(0x20000), LineState::Invalid);
    EXPECT_EQ(ms->l2(1).snoopState(0x20000), LineState::Invalid);
    EXPECT_EQ(ms->l2(2).snoopState(0x20000), LineState::Modified);
    // L1 copies were back-invalidated too.
    EXPECT_FALSE(ms->dcache(0).tryAccess(0x20000, false));
    EXPECT_FALSE(ms->dcache(1).tryAccess(0x20000, false));
}

TEST_F(MemSystemTest, UpgradeFromOwnedIsLocal)
{
    build(smallConfig());
    accessAndWait(0, 0x20000, true);  // node0 M
    accessAndWait(1, 0x20000, false); // node0 O, node1 S
    // node0 writes again: L1 was downgraded, L2 is Owned -> GetM
    // with the data already local (upgrade), and node1 invalidates.
    const sim::Tick lat = accessAndWait(0, 0x20000, true);
    EXPECT_EQ(lat, 0u + 50 + smallConfig().upgradeLatency + 12);
    EXPECT_EQ(ms->l2(0).snoopState(0x20000), LineState::Modified);
    EXPECT_EQ(ms->l2(1).snoopState(0x20000), LineState::Invalid);
    EXPECT_GE(ms->totalStats().upgrades, 1u);
}

TEST_F(MemSystemTest, SharedCopiesSurviveRemoteGetS)
{
    build(smallConfig());
    accessAndWait(0, 0x30000, false);
    accessAndWait(1, 0x30000, false);
    EXPECT_EQ(ms->l2(0).snoopState(0x30000), LineState::Shared);
    EXPECT_EQ(ms->l2(1).snoopState(0x30000), LineState::Shared);
    // Both L1s still hit for reads.
    EXPECT_TRUE(ms->dcache(0).tryAccess(0x30000, false));
    EXPECT_TRUE(ms->dcache(1).tryAccess(0x30000, false));
}

TEST_F(MemSystemTest, ConcurrentRequestsSameBlockNackAndRetry)
{
    build(smallConfig());
    // Warm node0 with M so node1/node2 both need a transaction.
    accessAndWait(0, 0x40000, true);
    ms->dcache(1).access({0x40000, false, false, 100});
    ms->dcache(2).access({0x40000, false, false, 200});
    eq.run();
    EXPECT_EQ(clients[1]->responses.size(), 1u);
    EXPECT_EQ(clients[2]->responses.size(), 1u);
    EXPECT_GE(ms->totalStats().nacks, 1u);
    EXPECT_EQ(ms->pendingTransactions(), 0u);
}

TEST_F(MemSystemTest, DirtyEvictionWritesBack)
{
    MemConfig cfg = smallConfig();
    cfg.l2Size = 512; // 8 blocks, 2-way: 4 sets -> easy conflicts
    cfg.l1Size = 128; // 2 blocks
    build(cfg);

    const sim::Addr a = 0x1000;
    accessAndWait(0, a, true); // dirty
    // Two more blocks mapping to the same L2 set (stride = 4 sets *
    // 64B = 256B).
    accessAndWait(0, a + 256, false);
    accessAndWait(0, a + 512, false); // evicts dirty `a`
    EXPECT_GE(ms->totalStats().writebacks, 1u);
    EXPECT_EQ(ms->l2(0).snoopState(a), LineState::Invalid);
    // The data is recoverable from memory.
    EXPECT_GT(accessAndWait(0, a, false), 0u);
}

TEST_F(MemSystemTest, DramOccupancyQueuesSameHome)
{
    build(smallConfig());
    const MemConfig cfg = smallConfig();
    // Two blocks with the same home controller (stride
    // numNodes*blockBytes), requested simultaneously.
    const sim::Addr a = 0x50000;
    const sim::Addr b = a + cfg.numNodes * cfg.blockBytes;
    ms->dcache(0).access({a, false, false, 1});
    ms->dcache(1).access({b, false, false, 2});
    eq.run();
    // First: ordered 0, snoop 50, dram 50..130, arrive 180, +12.
    // Second: ordered 4, snoop 54, dram start max(54, 50+16)=66,
    // ready 146, arrive 196, +12.
    EXPECT_EQ(clients[0]->lastResponseTick(), 192u);
    EXPECT_EQ(clients[1]->lastResponseTick(), 208u);
}

TEST_F(MemSystemTest, DistinctHomesDoNotQueue)
{
    build(smallConfig());
    const MemConfig cfg = smallConfig();
    const sim::Addr a = 0x50000;
    const sim::Addr b = a + cfg.blockBytes; // next home
    ms->dcache(0).access({a, false, false, 1});
    ms->dcache(1).access({b, false, false, 2});
    eq.run();
    EXPECT_EQ(clients[0]->lastResponseTick(), 192u);
    // Only the bus-ordering occupancy (4) separates them.
    EXPECT_EQ(clients[1]->lastResponseTick(), 196u);
}

TEST_F(MemSystemTest, PerturbationBoundsAndVariation)
{
    MemConfig cfg = smallConfig();
    cfg.perturbMaxNs = 4;
    build(cfg);
    ms->seedPerturbation(7);

    std::vector<sim::Tick> lats;
    for (int i = 0; i < 32; ++i) {
        const sim::Addr addr = 0x100000 + i * 0x1000;
        lats.push_back(accessAndWait(0, addr, false));
    }
    bool sawNonBase = false;
    for (sim::Tick lat : lats) {
        EXPECT_GE(lat, 192u);
        EXPECT_LE(lat, 196u);
        sawNonBase |= lat != 192u;
    }
    EXPECT_TRUE(sawNonBase) << "perturbation never fired";
    EXPECT_GT(ms->totalStats().perturbationTotal, 0u);
}

TEST_F(MemSystemTest, PerturbationSeedsDeterministic)
{
    auto runOnce = [](std::uint64_t seed) {
        sim::EventQueue q;
        MemConfig cfg = smallConfig();
        cfg.perturbMaxNs = 4;
        MemSystem m("mem", q, cfg);
        TestClient cl(q);
        m.dcache(0).setClient(&cl);
        m.seedPerturbation(seed);
        std::vector<sim::Tick> lats;
        for (int i = 0; i < 16; ++i) {
            m.dcache(0).access({0x100000 + i * 0x1000ull, false,
                                false, static_cast<std::uint64_t>(i)});
            q.run();
            lats.push_back(cl.responses.back().second);
        }
        return lats;
    };
    EXPECT_EQ(runOnce(11), runOnce(11));
    EXPECT_NE(runOnce(11), runOnce(12));
}

TEST_F(MemSystemTest, SerializeRestoresCoherenceState)
{
    build(smallConfig());
    accessAndWait(0, 0x20000, true);
    accessAndWait(1, 0x20000, false); // 0: O, 1: S
    accessAndWait(2, 0x30000, true);  // 2: M

    sim::CheckpointOut out;
    ms->serialize(out);

    sim::EventQueue eq2;
    MemSystem ms2("mem", eq2, smallConfig());
    sim::CheckpointIn in(out.bytes());
    ms2.unserialize(in);

    EXPECT_EQ(ms2.l2(0).snoopState(0x20000), LineState::Owned);
    EXPECT_EQ(ms2.l2(1).snoopState(0x20000), LineState::Shared);
    EXPECT_EQ(ms2.l2(2).snoopState(0x30000), LineState::Modified);
    EXPECT_EQ(ms2.totalStats().l2Misses,
              ms->totalStats().l2Misses);
}

TEST_F(MemSystemTest, RestoreRebuildsTheHolderFilter)
{
    const sim::Addr owned = 0x20000, shared = 0x30000,
                    modified = 0x40000;
    build(smallConfig());
    accessAndWait(0, owned, true);
    accessAndWait(1, owned, false); // 0: O, 1: S
    for (std::size_t n = 0; n < 3; ++n)
        accessAndWait(n, shared, false); // 0, 1, 2: S
    accessAndWait(3, modified, true);    // 3: M
    const std::vector<sim::Addr> blocks{owned, shared, modified};
    expectCoherent(blocks);

    // Same geometry: the tags come back, and the holder filter (never
    // checkpointed) is rebuilt from them.
    restoreInto(smallConfig());
    EXPECT_EQ(ms->l2(0).snoopState(owned), LineState::Owned);
    EXPECT_EQ(ms->l2(2).snoopState(shared), LineState::Shared);
    EXPECT_EQ(ms->bus().holdersOf(shared), 0b0111u);
    expectCoherent(blocks);

    // A remote GetM to the restored shared block must reach every
    // copy; a filter left empty by a skipped rebuild would snoop no
    // one and leave three stale sharers behind.
    accessAndWait(3, shared, true);
    for (std::size_t n = 0; n < 3; ++n) {
        EXPECT_EQ(ms->l2(n).snoopState(shared), LineState::Invalid)
            << "node " << n;
        EXPECT_FALSE(ms->dcache(n).tryAccess(shared, false));
    }
    EXPECT_EQ(ms->l2(3).snoopState(shared), LineState::Modified);
    EXPECT_EQ(ms->bus().holdersOf(shared), 0b1000u);
    // And the restored owner still supplies its block.
    const std::uint64_t c2c = ms->totalStats().cacheToCache;
    accessAndWait(2, owned, false);
    EXPECT_EQ(ms->totalStats().cacheToCache, c2c + 1);
    expectCoherent(blocks);
}

TEST_F(MemSystemTest, RestoreIntoOtherGeometryStartsColdAndCoherent)
{
    const sim::Addr owned = 0x20000, shared = 0x30000;
    build(smallConfig());
    accessAndWait(0, owned, true);
    accessAndWait(1, owned, false);
    accessAndWait(1, shared, false);
    accessAndWait(2, shared, false);

    // A different L2 associativity cannot reuse the tags: the L2s
    // restore cold, memory owns every block, the filter is empty and
    // the L1s (same geometry) drop the lines their L2 lost.
    MemConfig other = smallConfig();
    other.l2Assoc = 4;
    restoreInto(other);
    const std::vector<sim::Addr> blocks{owned, shared};
    for (const sim::Addr addr : blocks) {
        EXPECT_EQ(ms->bus().holdersOf(addr), 0u);
        for (std::size_t n = 0; n < ms->config().numNodes; ++n) {
            EXPECT_EQ(ms->l2(n).snoopState(addr), LineState::Invalid);
            EXPECT_FALSE(ms->dcache(n).tryAccess(addr, false));
        }
    }
    expectCoherent(blocks);

    // Traffic on the cold system keeps every invariant.
    EXPECT_EQ(accessAndWait(0, owned, false), 192u) << "memory fetch";
    accessAndWait(1, owned, true);
    accessAndWait(2, shared, true);
    accessAndWait(3, shared, false);
    EXPECT_EQ(ms->l2(0).snoopState(owned), LineState::Invalid);
    EXPECT_EQ(ms->l2(2).snoopState(shared), LineState::Owned);
    expectCoherent(blocks);
}

TEST_F(MemSystemTest, MshrMergesRequestsToSameBlock)
{
    build(smallConfig());
    ms->dcache(0).access({0x60000, false, false, 1});
    ms->dcache(0).access({0x60008, false, false, 2}); // same block
    EXPECT_EQ(ms->dcache(0).pendingMisses(), 1u);
    eq.run();
    EXPECT_EQ(clients[0]->responses.size(), 2u);
    EXPECT_EQ(ms->totalStats().l2Misses, 1u)
        << "merged accesses must issue one bus transaction";
}

TEST_F(MemSystemTest, ReadThenWriteEscalatesToUpgrade)
{
    build(smallConfig());
    // A read miss in flight joined by a write to the same block:
    // both complete and the final state is Modified.
    ms->dcache(0).access({0x70000, false, false, 1});
    ms->dcache(0).access({0x70000, true, false, 2});
    eq.run();
    EXPECT_EQ(clients[0]->responses.size(), 2u);
    EXPECT_EQ(ms->l2(0).snoopState(0x70000), LineState::Modified);
    EXPECT_TRUE(ms->dcache(0).tryAccess(0x70000, true));
}

TEST_F(MemSystemTest, IFetchUsesICache)
{
    build(smallConfig());
    ms->icache(0).access({0x80000, false, true, 1});
    eq.run();
    EXPECT_EQ(clients[0]->responses.size(), 1u);
    EXPECT_TRUE(ms->icache(0).tryAccess(0x80000, false));
    EXPECT_FALSE(ms->dcache(0).tryAccess(0x80000, false))
        << "dcache must not be polluted by ifetch";
    // Both L1s of one node share the L2.
    EXPECT_EQ(ms->l2(0).snoopState(0x80000), LineState::Shared);
}

TEST_F(MemSystemTest, ReusedTagArenaStartsEmpty)
{
    const MemConfig cfg = smallConfig();
    build(cfg);
    for (sim::Addr a = 0; a < 96 * 64; a += 64)
        accessAndWait((a / 64) % cfg.numNodes, a, (a / 64) % 3 == 0);
    std::size_t dirty = 0;
    for (std::size_t n = 0; n < cfg.numNodes; ++n)
        dirty += ms->l2(n).validLines() + ms->dcache(n).validLines();
    ASSERT_GT(dirty, 0u);

    // The next system of this shape takes the released arena back.
    clients.clear();
    ms.reset();
    const auto before = TagArena::poolStats();
    build(cfg);
    EXPECT_EQ(TagArena::poolStats().reused, before.reused + 1);
    for (std::size_t n = 0; n < cfg.numNodes; ++n) {
        EXPECT_EQ(ms->icache(n).validLines(), 0u) << "node " << n;
        EXPECT_EQ(ms->dcache(n).validLines(), 0u) << "node " << n;
        EXPECT_EQ(ms->l2(n).validLines(), 0u) << "node " << n;
    }
    EXPECT_EQ(ms->l2(0).snoopState(0), LineState::Invalid);
    EXPECT_GT(accessAndWait(0, 0, false), 0u) << "block 0 misses";
}

} // namespace
} // namespace mem
} // namespace varsim
