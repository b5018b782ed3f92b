/** @file Unit tests for the deterministic PCG RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "sim/rng.hh"

using namespace ariadne;

TEST(Rng, SameSeedSameStream)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next32() == b.next32());
    EXPECT_LT(same, 4);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(7);
    std::uint64_t first = a.next64();
    a.reseed(7);
    EXPECT_EQ(a.next64(), first);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowZeroBoundIsZero)
{
    Rng r(1);
    EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, BelowOneIsAlwaysZero)
{
    Rng r(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        std::uint64_t v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 3u); // all three values appear
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsTrivialProbabilities)
{
    Rng r(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ThresholdDrawsEqualChance)
{
    // Both ends of [0, 1], the first step above 0 and the last below
    // 1, values outside [0, 1], NaN and a subnormal.
    const double ps[] = {0.0,  0x1.0p-53, 0.3,  0.5,
                         0.7,  1.0 - 0x1.0p-53, 1.0, 1.5,
                         -0.1, std::nan(""), 0x1.0p-1074};
    for (double p : ps) {
        Threshold t(p);
        // The bound is exact: the last succeeding value of the 53
        // bits passes uniform() < p, the first failing one does not.
        std::uint64_t n = t.successes();
        ASSERT_LE(n, std::uint64_t{1} << 53) << p;
        if (n > 0) {
            EXPECT_LT(static_cast<double>(n - 1) * 0x1.0p-53, p) << p;
        }
        if (n < std::uint64_t{1} << 53) {
            EXPECT_FALSE(static_cast<double>(n) * 0x1.0p-53 < p) << p;
        }

        // And a draw against it is chance(p): same outcome, same
        // single draw from the stream.
        Rng a(2024), b(2024), c(2024);
        for (int i = 0; i < 100000; ++i) {
            bool want = a.uniform() < p;
            ASSERT_EQ(b.chance(p), want) << "p = " << p << ", draw " << i;
            ASSERT_EQ(c.chance(t), want) << "p = " << p << ", draw " << i;
        }
        std::uint64_t next = a.next64();
        EXPECT_EQ(b.next64(), next) << p;
        EXPECT_EQ(c.next64(), next) << p;
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(42);
    Rng child = a.fork(1);
    Rng a2(42);
    Rng child2 = a2.fork(1);
    // Forks of identical parents with identical salt agree...
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(child.next64(), child2.next64());
    // ...and differ by salt.
    Rng a3(42);
    Rng other = a3.fork(2);
    Rng a4(42);
    Rng base = a4.fork(1);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (other.next32() == base.next32());
    EXPECT_LT(same, 4);
}

TEST(Mix64, DeterministicAndSpreading)
{
    EXPECT_EQ(mix64(1), mix64(1));
    std::set<std::uint64_t> outputs;
    for (std::uint64_t i = 0; i < 1000; ++i)
        outputs.insert(mix64(i));
    EXPECT_EQ(outputs.size(), 1000u);
}

TEST(Rng, Below64BitBoundaries)
{
    Rng r(1);
    std::uint64_t big = 1ULL << 40;
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(r.below(big), big);
}
