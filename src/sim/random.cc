#include "sim/random.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>

#include "sim/logging.hh"
#include "sim/serialize.hh"

namespace varsim
{
namespace sim
{

namespace
{

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // anonymous namespace

Random::Random(std::uint64_t seed_value)
{
    seed(seed_value);
}

void
Random::seed(std::uint64_t seed_value)
{
    SplitMix64 sm(seed_value);
    for (auto &word : s)
        word = sm.next();
}

std::uint64_t
Random::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

std::uint64_t
Random::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    VARSIM_ASSERT(lo <= hi, "uniformInt: lo=%llu > hi=%llu",
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next();
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = (~std::uint64_t{0} / span) * span;
    std::uint64_t x;
    do {
        x = next();
    } while (x >= limit);
    return lo + x % span;
}

double
Random::uniformReal()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Random::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * uniformReal();
}

bool
Random::bernoulli(double p)
{
    return uniformReal() < p;
}

double
Random::exponential(double mean)
{
    double u;
    do {
        u = uniformReal();
    } while (u <= 0.0);
    return -mean * std::log(u);
}

double
Random::normal(double mean, double sigma)
{
    double u1;
    do {
        u1 = uniformReal();
    } while (u1 <= 0.0);
    const double u2 = uniformReal();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    return mean + sigma * mag * std::cos(2.0 * M_PI * u2);
}

void
Random::serialize(CheckpointOut &cp) const
{
    for (auto word : s)
        cp.put(word);
}

void
Random::unserialize(CheckpointIn &cp)
{
    for (auto &word : s)
        cp.get(word);
}

ZipfTable::ZipfTable(std::size_t n, double alpha)
{
    VARSIM_ASSERT(n > 0, "ZipfSampler needs n > 0");
    cdf.resize(n);
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
        cdf[i] = sum;
    }
    for (auto &c : cdf)
        c /= sum;
    cdf.back() = 1.0;

    hint.resize(kHintBuckets + 1);
    for (std::size_t b = 0; b <= kHintBuckets; ++b) {
        const double lo =
            static_cast<double>(b) / static_cast<double>(kHintBuckets);
        hint[b] = static_cast<std::uint32_t>(
            std::lower_bound(cdf.begin(), cdf.end(), lo) - cdf.begin());
    }
}

namespace
{

/** Tables by (n, bits of alpha); entries expire with their table. */
struct ZipfRegistry
{
    std::mutex mu;
    std::map<std::pair<std::size_t, std::uint64_t>,
             std::weak_ptr<const ZipfTable>>
        tables;
};

ZipfRegistry &
zipfRegistry()
{
    // Never destroyed: samplers may outlive static destruction.
    static ZipfRegistry *r = new ZipfRegistry;
    return *r;
}

} // anonymous namespace

ZipfSampler::ZipfSampler(std::size_t n, double alpha)
{
    const auto key =
        std::make_pair(n, std::bit_cast<std::uint64_t>(alpha));
    ZipfRegistry &reg = zipfRegistry();
    {
        std::lock_guard<std::mutex> g(reg.mu);
        auto it = reg.tables.find(key);
        if (it != reg.tables.end() && (table_ = it->second.lock()))
            return;
    }
    // Built outside the lock; if another thread published the same
    // table meanwhile, adopt theirs so every holder shares one.
    auto built = std::make_shared<const ZipfTable>(n, alpha);
    std::lock_guard<std::mutex> g(reg.mu);
    std::erase_if(reg.tables,
                  [](const auto &e) { return e.second.expired(); });
    std::weak_ptr<const ZipfTable> &slot = reg.tables[key];
    table_ = slot.lock();
    if (!table_) {
        table_ = std::move(built);
        slot = table_;
    }
}

std::size_t
ZipfSampler::sample(Random &rng) const
{
    const std::vector<double> &cdf = table_->cdf;
    const std::vector<std::uint32_t> &hint = table_->hint;
    constexpr std::size_t kHintBuckets = ZipfTable::kHintBuckets;
    const double u = rng.uniformReal();
    // lower_bound(u) lies in [hint[b], hint[b+1]] for u's bucket b,
    // because u < (b + 1) / kHintBuckets and lower_bound is monotone.
    const auto b = std::min<std::size_t>(
        kHintBuckets - 1,
        static_cast<std::size_t>(u * static_cast<double>(kHintBuckets)));
    const auto first = cdf.begin() + hint[b];
    const auto last =
        cdf.begin() +
        std::min<std::size_t>(cdf.size(), hint[b + 1] + std::size_t{1});
    auto it = std::lower_bound(first, last, u);
    if (it == cdf.end())
        return cdf.size() - 1;
    return static_cast<std::size_t>(it - cdf.begin());
}

} // namespace sim
} // namespace varsim
