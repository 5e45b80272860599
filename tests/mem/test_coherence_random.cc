/**
 * @file
 * Directed random stress tester for the MOSI snooping protocol, in
 * the spirit of gem5's Ruby Random Tester: thousands of randomized
 * loads and stores from every node against a small, conflict-heavy
 * address space, with the protocol's global invariants checked
 * against a golden reference model after every quiesce point.
 *
 * Invariants checked:
 *  I1  at most one node holds a block in an owner state (M/O);
 *  I2  if any node holds M, no other node holds any valid copy;
 *  I3  every issued access eventually receives exactly one response;
 *  I4  only nodes that have actually written a block may hold it in
 *      M (write permission is granted exclusively through GetM);
 *  I5  the memory system drains to zero pending transactions;
 *  I6  every node holding a valid L2 copy is named by the fabric's
 *      node mask for the block — the snooping bus's holder filter
 *      (which decides whom a snoop visits) or the directory's sharer
 *      set — and a node holding it in M/O is the directory's owner.
 *
 * Between quiesce points the tester also interleaves bursts of
 * functional-warming accesses (L1Cache::warmAccess, the sampling fast
 * mode's path through warmRequest/warmTransition), re-checking every
 * invariant after each burst, so the timed and the warm protocol
 * paths hand the same blocks back and forth.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "mem/mem_system.hh"
#include "sim/random.hh"

namespace varsim
{
namespace mem
{
namespace
{

class Collector : public MemClient
{
  public:
    void
    memResponse(std::uint64_t tag) override
    {
        ++responses[tag];
    }

    std::map<std::uint64_t, int> responses;
};

struct RandomTester
{
    explicit RandomTester(std::uint64_t seed, std::size_t nodes = 4,
                          CoherenceProtocol protocol =
                              CoherenceProtocol::Snooping)
        : rng(seed)
    {
        MemConfig cfg;
        cfg.protocol = protocol;
        cfg.numNodes = nodes;
        cfg.l1Size = 512;  // tiny: constant evictions
        cfg.l1Assoc = 1;
        cfg.l2Size = 2048; // 32 blocks: heavy conflict pressure
        cfg.l2Assoc = 2;
        cfg.perturbMaxNs = 4;
        ms = std::make_unique<MemSystem>("mem", eq, cfg);
        ms->seedPerturbation(seed ^ 0x5a5a);
        // 24 hot blocks: 6 set positions x 4 aliases (the L2 way
        // span is 1024B), so set pressure forces dirty evictions.
        for (int i = 0; i < 24; ++i) {
            hotBlocks.push_back(0x10000 + (i % 6) * 64 +
                                (i / 6) * 1024);
        }
        for (std::size_t n = 0; n < nodes; ++n) {
            clients.push_back(std::make_unique<Collector>());
            ms->icache(n).setClient(clients.back().get());
            ms->dcache(n).setClient(clients.back().get());
        }
    }

    /** Issue one random access; track expectations. */
    void
    step()
    {
        const std::size_t node =
            rng.uniformInt(0, clients.size() - 1);
        const sim::Addr addr = hotBlocks[static_cast<std::size_t>(
            rng.uniformInt(0, hotBlocks.size() - 1))];
        const bool write = rng.bernoulli(0.45);
        if (ms->dcache(node).tryAccess(addr, write)) {
            if (write)
                writers[addr].insert(static_cast<int>(node));
            return; // hits complete synchronously
        }
        const std::uint64_t tag = nextTag++;
        expected[tag] = static_cast<int>(node);
        ms->dcache(node).access({addr, write, false, tag});
        if (write)
            writers[addr].insert(static_cast<int>(node));
        // Randomly interleave: sometimes let time pass, sometimes
        // pile up concurrent transactions.
        if (rng.bernoulli(0.5))
            eq.run(eq.curTick() + rng.uniformInt(1, 300));
    }

    /** Quiesce, then issue @p n random functional-warming accesses. */
    void
    warmBurst(int n)
    {
        eq.run(); // warm accesses need a quiescent memory system
        for (int i = 0; i < n; ++i) {
            const std::size_t node =
                rng.uniformInt(0, clients.size() - 1);
            const sim::Addr addr =
                hotBlocks[static_cast<std::size_t>(
                    rng.uniformInt(0, hotBlocks.size() - 1))];
            const bool write = rng.bernoulli(0.45);
            ms->dcache(node).warmAccess(addr, write);
            if (write)
                writers[addr].insert(static_cast<int>(node));
        }
    }

    /** The fabric's node mask for @p addr (I6). */
    std::uint64_t
    fabricMask(sim::Addr addr)
    {
        return ms->config().protocol == CoherenceProtocol::Snooping
                   ? ms->bus().holdersOf(addr)
                   : ms->directory().sharersOf(addr);
    }

    /** Drain and check all invariants. */
    void
    checkInvariants()
    {
        eq.run(); // quiesce
        ASSERT_EQ(ms->pendingTransactions(), 0u) << "I5";

        // I3: every expected response arrived exactly once.
        for (const auto &[tag, node] : expected) {
            const auto &resp =
                clients[static_cast<std::size_t>(node)]->responses;
            auto it = resp.find(tag);
            ASSERT_NE(it, resp.end())
                << "I3: tag " << tag << " never answered";
            EXPECT_EQ(it->second, 1)
                << "I3: tag " << tag << " answered twice";
        }

        // I1/I2/I4/I6 per block.
        for (std::size_t b = 0; b < hotBlocks.size(); ++b) {
            const sim::Addr addr = hotBlocks[b];
            const std::uint64_t mask = fabricMask(addr);
            int owners = 0, modified = -1, ownerNode = -1;
            int validCopies = 0;
            for (std::size_t n = 0; n < clients.size(); ++n) {
                const LineState s = ms->l2(n).snoopState(addr);
                if (isValidState(s)) {
                    ++validCopies;
                    EXPECT_NE(mask & (std::uint64_t{1} << n), 0u)
                        << "I6: block " << b << " valid at node " << n
                        << " outside the fabric mask";
                }
                if (isOwnerState(s)) {
                    ++owners;
                    ownerNode = static_cast<int>(n);
                }
                if (s == LineState::Modified)
                    modified = static_cast<int>(n);
            }
            EXPECT_LE(owners, 1) << "I1: block " << b;
            if (ownerNode >= 0 && ms->config().protocol ==
                                      CoherenceProtocol::Directory) {
                EXPECT_EQ(ms->directory().ownerOf(addr), ownerNode)
                    << "I6: block " << b << " owner untracked";
            }
            if (modified >= 0) {
                EXPECT_EQ(validCopies, 1)
                    << "I2: M with sharers, block " << b;
            }
            // I4: M can only be held by a node that wrote.
            if (modified >= 0) {
                EXPECT_TRUE(writers[addr].count(modified) > 0)
                    << "I4: block " << b << " M at non-writer node";
            }
        }
    }

    sim::EventQueue eq;
    sim::Random rng;
    std::unique_ptr<MemSystem> ms;
    std::vector<std::unique_ptr<Collector>> clients;
    std::map<std::uint64_t, int> expected;
    std::map<sim::Addr, std::set<int>> writers;
    std::vector<sim::Addr> hotBlocks;
    std::uint64_t nextTag = 1;
};

class CoherenceRandomTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint64_t, CoherenceProtocol>>
{};

INSTANTIATE_TEST_SUITE_P(
    SeedsAndProtocols, CoherenceRandomTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
        ::testing::Values(CoherenceProtocol::Snooping,
                          CoherenceProtocol::Directory)),
    [](const ::testing::TestParamInfo<
        std::tuple<std::uint64_t, CoherenceProtocol>> &info) {
        return sim::format(
            "seed%llu_%s",
            static_cast<unsigned long long>(
                std::get<0>(info.param)),
            std::get<1>(info.param) ==
                    CoherenceProtocol::Snooping
                ? "snoop"
                : "dir");
    });

TEST_P(CoherenceRandomTest, InvariantsHoldUnderRandomTraffic)
{
    RandomTester t(std::get<0>(GetParam()), 4,
                   std::get<1>(GetParam()));
    for (int round = 0; round < 40; ++round) {
        for (int i = 0; i < 50; ++i)
            t.step();
        t.checkInvariants();
        if (::testing::Test::HasFatalFailure())
            return;
        t.warmBurst(20);
        t.checkInvariants();
        if (::testing::Test::HasFatalFailure())
            return;
    }
    // Protocol actually got exercised: races produce NACKs and
    // conflict pressure produces writebacks.
    const MemStats s = t.ms->totalStats();
    EXPECT_GT(s.nacks + s.upgrades, 0u);
    EXPECT_GT(s.writebacks, 0u);
    EXPECT_GT(s.cacheToCache, 0u);
}

/** I1-I6 at full width: 16 nodes, warm bursts between quiesces. */
void
runSixteenNodes(CoherenceProtocol protocol)
{
    RandomTester t(99, 16, protocol);
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 100; ++i)
            t.step();
        t.checkInvariants();
        if (::testing::Test::HasFatalFailure())
            return;
        t.warmBurst(40);
        t.checkInvariants();
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(CoherenceRandomTest16, ScalesToSixteenNodes)
{
    runSixteenNodes(CoherenceProtocol::Snooping);
}

TEST(CoherenceRandomTest16, ScalesToSixteenNodesDirectory)
{
    runSixteenNodes(CoherenceProtocol::Directory);
}

} // namespace
} // namespace mem
} // namespace varsim
