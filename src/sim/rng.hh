/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * All stochastic decisions in the simulator (page contents, workload
 * churn, access-order noise) draw from explicitly seeded Rng instances
 * so that every experiment is bit-reproducible across runs and
 * platforms. The core is a PCG-XSH-RR 64/32 generator.
 */

#ifndef ARIADNE_SIM_RNG_HH
#define ARIADNE_SIM_RNG_HH

#include <cstdint>

namespace ariadne
{

/**
 * A Bernoulli probability @p p as an integer bound on the 53 bits that
 * Rng::uniform() scales: uniform() < p holds exactly when those bits
 * are below ceil(p * 2^53), clamped to [0, 2^53] (0 for NaN). So
 * Rng::chance(Threshold(p)) returns what uniform() < p would, from
 * the same single draw, with one integer compare. Build it once for a
 * fixed p, outside the loop that draws against it.
 */
class Threshold
{
  public:
    constexpr explicit Threshold(double p) noexcept
    {
        if (p >= 1.0) {
            bound = one;
        } else if (p > 0.0) {
            // p * 2^53 is exact, and below 2^53 so is its floor.
            double x = p * 0x1.0p53;
            bound = static_cast<std::uint64_t>(x);
            if (static_cast<double>(bound) < x)
                ++bound;
        }
    }

    /** How many of the 2^53 values of the 53 drawn bits succeed. */
    constexpr std::uint64_t
    successes() const noexcept
    {
        return bound;
    }

  private:
    friend class Rng;
    static constexpr std::uint64_t one = std::uint64_t{1} << 53;
    std::uint64_t bound = 0;
};

/** Seedable deterministic random number generator (PCG-XSH-RR). */
class Rng
{
  public:
    /** Construct with a 64-bit seed; equal seeds give equal streams. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept
    {
        reseed(seed);
    }

    /** Reset the stream as if freshly constructed with @p seed. */
    void
    reseed(std::uint64_t seed) noexcept
    {
        state = 0;
        next32();
        state += seed;
        next32();
    }

    /** Next 32 uniformly distributed bits. */
    std::uint32_t
    next32() noexcept
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ULL + 1442695040888963407ULL;
        auto xorshifted =
            static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
        auto rot = static_cast<std::uint32_t>(old >> 59u);
        return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
    }

    /** Next 64 uniformly distributed bits. */
    std::uint64_t
    next64() noexcept
    {
        return (static_cast<std::uint64_t>(next32()) << 32) | next32();
    }

    /** Uniform integer in [0, bound); bound == 0 returns 0. */
    std::uint64_t
    below(std::uint64_t bound) noexcept
    {
        if (bound == 0)
            return 0;
        // Rejection sampling to avoid modulo bias: accept r at or
        // above 2^64 mod bound. That is below bound, so only r below
        // bound needs the division that computes it.
        for (;;) {
            std::uint64_t r = next64();
            if (r >= bound || r >= (-bound) % bound)
                return r % bound;
        }
    }

    /** Uniform integer in the closed range [lo, hi]. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi) noexcept
    {
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform() noexcept
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli trial against a prepared threshold. */
    bool
    chance(Threshold t) noexcept
    {
        return (next64() >> 11) < t.bound;
    }

    /** Bernoulli trial: true with probability @p p, exactly when
     * uniform() < p would be. */
    bool
    chance(double p) noexcept
    {
        return chance(Threshold(p));
    }

    /**
     * Derive an independent child stream. Used to give each (app, page)
     * pair its own content stream without correlating sequences.
     */
    Rng
    fork(std::uint64_t salt) noexcept
    {
        return Rng(next64() ^ (salt * 0x9e3779b97f4a7c15ULL));
    }

  private:
    std::uint64_t state = 0;
};

/**
 * Stateless 64-bit mix hash (SplitMix64 finalizer). Used to derive
 * deterministic per-object seeds from identifiers.
 */
constexpr std::uint64_t
mix64(std::uint64_t x) noexcept
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace ariadne

#endif // ARIADNE_SIM_RNG_HH
