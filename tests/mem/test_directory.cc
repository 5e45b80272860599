/**
 * @file
 * Tests of the directory-based MOSI fabric: point-to-point timing
 * (3-hop forwarding), directory state tracking, invalidation
 * semantics, NACK/retry, and the derived-state rebuild on restore.
 */

#include <gtest/gtest.h>

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
dirConfig()
{
    MemConfig c;
    c.protocol = CoherenceProtocol::Directory;
    c.numNodes = 4;
    c.l1Size = 512;
    c.l1Assoc = 1;
    c.l2Size = 4096;
    c.l2Assoc = 2;
    c.perturbMaxNs = 0;
    return c;
}

class DirectoryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ms = std::make_unique<MemSystem>("mem", eq, dirConfig());
        for (std::size_t n = 0; n < 4; ++n) {
            clients.push_back(std::make_unique<TestClient>(eq));
            ms->icache(n).setClient(clients.back().get());
            ms->dcache(n).setClient(clients.back().get());
        }
    }

    sim::Tick
    accessAndWait(std::size_t node, sim::Addr addr, bool write)
    {
        const sim::Tick start = eq.curTick();
        if (ms->dcache(node).tryAccess(addr, write))
            return 0;
        ms->dcache(node).access({addr, write, false, nextTag++});
        eq.run();
        return clients[node]->lastResponseTick() - start;
    }

    /**
     * Node 0 holds X in O and upgrades it @p upgrade_at ticks after
     * a read of Y2 (same L2 set) went out; Y2's fill evicts the O
     * copy and sends a PutM while the GetM is granted, which reaches
     * the home after the grant. That writeback is stale — the
     * upgrade fill makes node 0 the M owner — and the directory must
     * keep node 0, or a later GetM leaves two M copies.
     */
    void
    upgradeRacesWriteback(sim::Tick upgrade_at)
    {
        const sim::Addr x = 0x20000, y1 = 0x20800, y2 = 0x21000;
        accessAndWait(0, x, true);
        accessAndWait(1, x, false);  // 0: O, 1: S
        accessAndWait(0, y1, false); // node 0's set: X and Y1

        // Y2's fill lands at t0+192 and the upgrade's at
        // t0+upgrade_at+162; the PutM reaches the home at t0+254.
        const sim::Tick t0 = eq.curTick();
        ms->dcache(0).access({y2, false, false, nextTag++});
        eq.callAt(t0 + upgrade_at, [this, x] {
            ms->dcache(0).access({x, true, false, nextTag++});
        });
        eq.callAt(t0 + upgrade_at + 1, [this, y1] {
            // An L2 hit on Y1 leaves X least recently used.
            ms->icache(0).access({y1, false, true, nextTag++});
        });
        eq.run();

        ASSERT_EQ(ms->l2(0).writebacks(), 1u) << "X was not evicted";
        EXPECT_EQ(ms->l2(0).snoopState(x), LineState::Modified);
        EXPECT_EQ(ms->directory().ownerOf(x), 0);
        EXPECT_EQ(ms->directory().sharersOf(x), 0b0001u);

        accessAndWait(1, x, true);
        EXPECT_EQ(ms->l2(0).snoopState(x), LineState::Invalid);
        EXPECT_EQ(ms->l2(1).snoopState(x), LineState::Modified);
    }

    sim::EventQueue eq;
    std::unique_ptr<MemSystem> ms;
    std::vector<std::unique_ptr<TestClient>> clients;
    std::uint64_t nextTag = 1;
};

TEST_F(DirectoryTest, ColdMissTiming)
{
    // request hop (50) + dir (12) + DRAM (80) + data hop (50)
    // + L2-to-core (12) = 204.
    EXPECT_EQ(accessAndWait(0, 0x10000, false), 204u);
    EXPECT_EQ(ms->totalStats().memoryFetches, 1u);
    EXPECT_EQ(ms->directory().sharersOf(0x10000), 0x1u);
    EXPECT_EQ(ms->directory().ownerOf(0x10000), -1);
}

TEST_F(DirectoryTest, StoreRecordsOwner)
{
    accessAndWait(0, 0x20000, true);
    EXPECT_EQ(ms->directory().ownerOf(0x20000), 0);
    EXPECT_EQ(ms->directory().sharersOf(0x20000), 0x1u);
    EXPECT_EQ(ms->l2(0).snoopState(0x20000), LineState::Modified);
}

TEST_F(DirectoryTest, ThreeHopForwarding)
{
    accessAndWait(0, 0x20000, true); // node0 owns M
    // node1 GetS: hop(50) + dir(12) + fwd hop(50) + owner(25) +
    // data hop(50) + 12 = 199.
    EXPECT_EQ(accessAndWait(1, 0x20000, false), 199u);
    EXPECT_EQ(ms->totalStats().cacheToCache, 1u);
    EXPECT_EQ(ms->l2(0).snoopState(0x20000), LineState::Owned);
    EXPECT_EQ(ms->l2(1).snoopState(0x20000), LineState::Shared);
    EXPECT_EQ(ms->directory().ownerOf(0x20000), 0);
    EXPECT_EQ(ms->directory().sharersOf(0x20000), 0x3u);
}

TEST_F(DirectoryTest, GetMInvalidatesTrackedSharers)
{
    accessAndWait(0, 0x30000, false);
    accessAndWait(1, 0x30000, false);
    accessAndWait(2, 0x30000, true);
    EXPECT_EQ(ms->l2(0).snoopState(0x30000), LineState::Invalid);
    EXPECT_EQ(ms->l2(1).snoopState(0x30000), LineState::Invalid);
    EXPECT_EQ(ms->l2(2).snoopState(0x30000), LineState::Modified);
    EXPECT_EQ(ms->directory().ownerOf(0x30000), 2);
    EXPECT_EQ(ms->directory().sharersOf(0x30000), 0x4u);
}

TEST_F(DirectoryTest, InvalidationAcksExtendLatency)
{
    accessAndWait(0, 0x30000, false);
    accessAndWait(1, 0x30000, false);
    // node2 GetM: data from memory ((80-12... dram scheduled at
    // process time) + 50) dominates the 100ns ack round trip:
    // 50 + 12 + max(130, 100) + 12 = 204.
    EXPECT_EQ(accessAndWait(2, 0x30000, true), 204u);
}

TEST_F(DirectoryTest, UpgradeFromOwned)
{
    accessAndWait(0, 0x20000, true);  // node0 M
    accessAndWait(1, 0x20000, false); // node0 O, node1 S
    // node0 GetM upgrade: 50 + 12 + max(upgrade 8, acks 100) + 12
    // = 174.
    EXPECT_EQ(accessAndWait(0, 0x20000, true), 174u);
    EXPECT_EQ(ms->l2(0).snoopState(0x20000), LineState::Modified);
    EXPECT_EQ(ms->l2(1).snoopState(0x20000), LineState::Invalid);
    EXPECT_GE(ms->totalStats().upgrades, 1u);
}

TEST_F(DirectoryTest, WritebackReturnsOwnershipToMemory)
{
    MemConfig cfg = dirConfig();
    cfg.l2Size = 512; // 8 blocks, 2-way
    cfg.l1Size = 128;
    sim::EventQueue eq2;
    MemSystem m2("mem", eq2, cfg);
    TestClient cl(eq2);
    m2.dcache(0).setClient(&cl);
    m2.icache(0).setClient(&cl);

    auto access = [&](sim::Addr a, bool w) {
        if (!m2.dcache(0).tryAccess(a, w)) {
            m2.dcache(0).access({a, w, false, ++nextTag});
            eq2.run();
        }
    };
    access(0x1000, true);        // dirty
    access(0x1000 + 256, false); // same set
    access(0x1000 + 512, false); // evicts dirty block
    EXPECT_GE(m2.totalStats().writebacks, 1u);
    EXPECT_EQ(m2.directory().ownerOf(0x1000), -1);
    // Refetch comes from memory.
    access(0x1000, false);
    EXPECT_EQ(m2.l2(0).snoopState(0x1000), LineState::Shared);
}

TEST_F(DirectoryTest, ConcurrentRequestsNackAndRetry)
{
    accessAndWait(0, 0x40000, true);
    ms->dcache(1).access({0x40000, false, false, 100});
    ms->dcache(2).access({0x40000, false, false, 200});
    eq.run();
    EXPECT_EQ(clients[1]->responses.size(), 1u);
    EXPECT_EQ(clients[2]->responses.size(), 1u);
    EXPECT_GE(ms->totalStats().nacks, 1u);
    EXPECT_EQ(ms->pendingTransactions(), 0u);
}

TEST_F(DirectoryTest, RestoreRebuildsDirectoryFromCaches)
{
    accessAndWait(0, 0x20000, true);
    accessAndWait(1, 0x20000, false); // 0: O, 1: S
    accessAndWait(2, 0x50000, true);  // 2: M

    sim::CheckpointOut out;
    ms->serialize(out);

    sim::EventQueue eq2;
    MemSystem ms2("mem", eq2, dirConfig());
    sim::CheckpointIn in(out.bytes());
    ms2.unserialize(in);

    EXPECT_EQ(ms2.directory().ownerOf(0x20000), 0);
    EXPECT_EQ(ms2.directory().sharersOf(0x20000) & 0x3u, 0x3u);
    EXPECT_EQ(ms2.directory().ownerOf(0x50000), 2);
}

TEST_F(DirectoryTest, StaleWritebackAfterUpgradeFillKeepsOwner)
{
    upgradeRacesWriteback(40); // PutM arrives after the fill
}

TEST_F(DirectoryTest, StaleWritebackDuringUpgradeFillKeepsOwner)
{
    upgradeRacesWriteback(120); // PutM arrives with the fill in flight
}

TEST_F(DirectoryTest, PerturbationAppliesToDirectoryFills)
{
    MemConfig cfg = dirConfig();
    cfg.perturbMaxNs = 4;
    sim::EventQueue eq2;
    MemSystem m2("mem", eq2, cfg);
    m2.seedPerturbation(3);
    TestClient cl(eq2);
    m2.dcache(0).setClient(&cl);

    bool sawNonBase = false;
    for (int i = 0; i < 32; ++i) {
        const sim::Addr a = 0x100000 + i * 0x1000;
        const sim::Tick start = eq2.curTick();
        m2.dcache(0).access(
            {a, false, false, static_cast<std::uint64_t>(i)});
        eq2.run();
        const sim::Tick lat = cl.lastResponseTick() - start;
        EXPECT_GE(lat, 204u);
        EXPECT_LE(lat, 208u);
        sawNonBase |= lat != 204u;
    }
    EXPECT_TRUE(sawNonBase);
}

} // namespace
} // namespace mem
} // namespace varsim
