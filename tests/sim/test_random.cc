/** @file Unit and property tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "sim/random.hh"
#include "sim/serialize.hh"

namespace varsim
{
namespace sim
{
namespace
{

TEST(Random, SameSeedSameSequence)
{
    Random a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Random, UniformIntRespectsBounds)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.uniformInt(3, 17);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 17u);
    }
}

TEST(Random, UniformIntDegenerateRange)
{
    Random r(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.uniformInt(9, 9), 9u);
}

TEST(Random, UniformIntMeanIsCentered)
{
    // The paper's perturbation: uniform on {0..4}, mean 2 ns
    // (Section 3.3: "increases the average L2 miss latency by 2 ns").
    Random r(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.uniformInt(0, 4));
    EXPECT_NEAR(sum / n, 2.0, 0.02);
}

TEST(Random, UniformIntIsUniform)
{
    Random r(13);
    std::array<int, 5> buckets{};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++buckets[r.uniformInt(0, 4)];
    for (int count : buckets)
        EXPECT_NEAR(count, n / 5, n / 100);
}

TEST(Random, UniformRealInUnitInterval)
{
    Random r(17);
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Random, ExponentialHasRequestedMean)
{
    Random r(19);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Random, NormalHasRequestedMoments)
{
    Random r(23);
    double sum = 0.0, sq = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double v = r.normal(10.0, 3.0);
        sum += v;
        sq += v * v;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.4);
}

TEST(Random, SerializeRoundTripContinuesSequence)
{
    Random a(99);
    for (int i = 0; i < 57; ++i)
        a.next();

    CheckpointOut out;
    a.serialize(out);
    Random b(0);
    CheckpointIn in(out.bytes());
    b.unserialize(in);

    EXPECT_EQ(a, b);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, ReseedResetsState)
{
    Random a(5);
    const auto first = a.next();
    a.next();
    a.seed(5);
    EXPECT_EQ(a.next(), first);
}

TEST(ZipfSampler, SamplesWithinRange)
{
    Random r(31);
    ZipfSampler z(100, 0.9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(z.sample(r), 100u);
}

TEST(ZipfSampler, HeadIsHotterThanTail)
{
    Random r(37);
    ZipfSampler z(1000, 1.0);
    int head = 0, tail = 0;
    for (int i = 0; i < 50000; ++i) {
        const std::size_t s = z.sample(r);
        if (s < 10)
            ++head;
        else if (s >= 500)
            ++tail;
    }
    EXPECT_GT(head, tail * 2);
}

TEST(ZipfSampler, AlphaZeroIsUniform)
{
    Random r(41);
    ZipfSampler z(10, 0.0);
    std::array<int, 10> buckets{};
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++buckets[z.sample(r)];
    for (int count : buckets)
        EXPECT_NEAR(count, n / 10, n / 50);
}

TEST(ZipfSampler, SamplersOfOneShapeShareOneTable)
{
    ZipfSampler a(5000, 0.9), b(5000, 0.9);
    EXPECT_EQ(a.table(), b.table());
    EXPECT_EQ(a.table().use_count(), 2);
    EXPECT_NE(ZipfSampler(5000, 0.8).table(), a.table());
    EXPECT_NE(ZipfSampler(4999, 0.9).table(), a.table());
    ZipfSampler copy = a;
    EXPECT_EQ(copy.table(), a.table());
}

TEST(ZipfSampler, TableIsFreedWithItsLastHolder)
{
    std::weak_ptr<const ZipfTable> table;
    {
        ZipfSampler a(3000, 1.1);
        table = a.table();
        {
            ZipfSampler b(3000, 1.1);
            EXPECT_EQ(b.table(), table.lock());
        }
        EXPECT_FALSE(table.expired()) << "a still holds it";
    }
    EXPECT_TRUE(table.expired());
    // The next sampler of that shape builds a new table.
    ZipfSampler c(3000, 1.1);
    EXPECT_EQ(c.table().use_count(), 1);
}

TEST(ZipfSampler, SharedDrawsMatchAFreshlyBuiltTable)
{
    const std::size_t n = 20000;
    const double alpha = 0.95;
    ZipfSampler holder(n, alpha);
    ZipfSampler shared(n, alpha);
    ASSERT_EQ(shared.table(), holder.table());
    // Reference: a table built here, searched in full.
    const ZipfTable fresh(n, alpha);
    Random r1(43), r2(43);
    for (int i = 0; i < 20000; ++i) {
        const double u = r2.uniformReal();
        const auto it =
            std::lower_bound(fresh.cdf.begin(), fresh.cdf.end(), u);
        const std::size_t want =
            it == fresh.cdf.end()
                ? n - 1
                : static_cast<std::size_t>(it - fresh.cdf.begin());
        ASSERT_EQ(shared.sample(r1), want) << "draw " << i;
    }
}

TEST(ZipfSampler, ConcurrentSamplersShareOneTable)
{
    ZipfSampler holder(8000, 0.7);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            Random r(static_cast<std::uint64_t>(t));
            for (int i = 0; i < 50; ++i) {
                ZipfSampler mine(8000, 0.7);
                ZipfSampler other(100 + static_cast<std::size_t>(i % 3),
                                  0.5);
                if (mine.table() != holder.table())
                    ++mismatches;
                (void)mine.sample(r);
                (void)other.sample(r);
            }
        });
    }
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(mismatches.load(), 0);
}

} // namespace
} // namespace sim
} // namespace varsim
