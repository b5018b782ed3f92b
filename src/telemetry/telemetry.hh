/**
 * @file
 * Low-overhead, deterministic-safe instrumentation registry.
 *
 * The telemetry layer counts what the simulator *does* (pages
 * touched, compressions run, kswapd wakeups) and how long the host
 * spends doing it (span durations over the steady clock, inclusive
 * and self). It is strictly out-of-band: probes only ever write
 * into telemetry's own per-thread shards, never into simulator state,
 * so enabling any amount of telemetry cannot change a report byte —
 * reports are functions of (spec, seed) and telemetry reads are
 * side-effect-free.
 *
 * Hot-path cost: a disabled probe is one relaxed load and a branch; an
 * enabled counter increment is a single relaxed fetch_add into the
 * calling thread's own shard (a PerThread, per_thread.hh: uncontended,
 * no locks). Shards merge on finalize: snapshot() sums every thread's
 * slots, so the totals are the same for any thread split.
 *
 * Naming convention: `subsystem.verb` (e.g. `sys.touch`,
 * `kswapd.wakeup`, `compressor.compress.lzo`). Counters, durations,
 * gauges and histograms live in separate namespaces keyed by these
 * names.
 *
 * Beyond counters and durations, the registry carries two sampled
 * kinds: gauges (point-in-time readings of simulator state — zram
 * occupancy, free pages — summarized as count/sum/min/max) and
 * fixed-bucket log2 histograms (distributions of simulated latencies
 * and sizes). Both are fed *simulated* values at simulated times, so
 * their merged totals are invariant across thread counts and shard
 * splits, exactly like counters. Gauges are probed through
 * TimelineGauge (timeline.hh), which also feeds `--timeline`, and
 * histograms through AppHistogram.
 */

#ifndef ARIADNE_TELEMETRY_TELEMETRY_HH
#define ARIADNE_TELEMETRY_TELEMETRY_HH

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/per_thread.hh"

namespace ariadne::telemetry
{

namespace detail
{
/** Global enable flags; read relaxed on every probe hit. */
extern std::atomic<bool> g_enabled;
extern std::atomic<bool> g_traceEnabled;
} // namespace detail

/** Whether counter/duration probes record anything. */
inline bool
enabled() noexcept
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn probe recording on or off (off by default). */
void setEnabled(bool on) noexcept;

/** Whether spans emit their probe's trace event (TraceLog). */
inline bool
traceEnabled() noexcept
{
    return detail::g_traceEnabled.load(std::memory_order_relaxed);
}

/** Turn trace-event recording on or off (off by default). */
void setTraceEnabled(bool on) noexcept;

/** Monotonic nanoseconds of the host steady clock. */
inline std::uint64_t
hostNowNs() noexcept
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Process-wide registry of named monotonic counters and duration
 * accumulators, sharded per thread.
 *
 * Registration (interning a name to a slot) takes a lock and is meant
 * for probe construction — typically namespace-scope statics at the
 * instrumentation site. Recording is lock-free. The slot space is
 * fixed (maxSlots) so shards never reallocate under concurrent
 * writers; exceeding it is a programming error (panic).
 */
class Registry
{
  public:
    /** Total slots across counters (1 each), durations (3 each),
     * gauges (4 each) and histograms (histogramBuckets + 1 each). */
    static constexpr std::size_t maxSlots = 4096;

    /** Log2 buckets per histogram: bucket b counts values whose
     * bit width is b (0, 1, 2–3, 4–7, …), saturating at the top. */
    static constexpr std::size_t histogramBuckets = 32;

    /** The four metric kinds the slot space is partitioned into. */
    enum class Kind
    {
        Counter,
        Duration,
        Gauge,
        Histogram
    };

    /** The process-wide registry every probe records into. Inline so
     * per-touch counter hits pay a guard load, not a cross-TU call. */
    static Registry &
    global()
    {
        static Registry instance;
        return instance;
    }

    /** Intern a counter name; returns its slot. Idempotent. */
    std::size_t counterSlot(const std::string &name);

    /** Intern a duration name; returns the base of its (total-ns,
     * count, self-ns) slot triple. Idempotent. */
    std::size_t durationSlot(const std::string &name);

    /** Intern a gauge name; returns the base of its (count, sum,
     * min, max) slot quad. Idempotent. */
    std::size_t gaugeSlot(const std::string &name);

    /** Intern a histogram name; returns the base of its
     * histogramBuckets bucket slots followed by a sum slot.
     * Idempotent. */
    std::size_t histogramSlot(const std::string &name);

    /** Add @p delta to @p slot in this thread's shard. */
    void
    add(std::size_t slot, std::uint64_t delta) noexcept
    {
        shards.local().slots[slot].fetch_add(delta,
                                             std::memory_order_relaxed);
    }

    /** Record one span of @p ns (@p self_ns outside child spans). */
    void
    recordDuration(std::size_t base, std::uint64_t ns,
                   std::uint64_t self_ns) noexcept
    {
        Shard &s = shards.local();
        s.slots[base].fetch_add(ns, std::memory_order_relaxed);
        s.slots[base + 1].fetch_add(1, std::memory_order_relaxed);
        s.slots[base + 2].fetch_add(self_ns, std::memory_order_relaxed);
    }

    /** Record one gauge sample against a gaugeSlot() base. Each shard
     * has exactly one writer (its thread), so min/max can be plain
     * relaxed load/store — no CAS loop. */
    void
    recordGauge(std::size_t base, std::uint64_t v) noexcept
    {
        Shard &s = shards.local();
        std::uint64_t n =
            s.slots[base].fetch_add(1, std::memory_order_relaxed);
        s.slots[base + 1].fetch_add(v, std::memory_order_relaxed);
        if (n == 0) {
            s.slots[base + 2].store(v, std::memory_order_relaxed);
            s.slots[base + 3].store(v, std::memory_order_relaxed);
        } else {
            if (v < s.slots[base + 2].load(std::memory_order_relaxed))
                s.slots[base + 2].store(v, std::memory_order_relaxed);
            if (v > s.slots[base + 3].load(std::memory_order_relaxed))
                s.slots[base + 3].store(v, std::memory_order_relaxed);
        }
    }

    /** Bucket index of @p v: its bit width, saturated to the top
     * bucket. Bucket b spans [2^(b-1), 2^b) for b >= 1; bucket 0 is
     * exactly zero. */
    static std::size_t
    histogramBucket(std::uint64_t v) noexcept
    {
        std::size_t b = static_cast<std::size_t>(std::bit_width(v));
        return b < histogramBuckets ? b : histogramBuckets - 1;
    }

    /** Record one value against a histogramSlot() base. */
    void
    recordHistogram(std::size_t base, std::uint64_t v) noexcept
    {
        Shard &s = shards.local();
        s.slots[base + histogramBucket(v)].fetch_add(
            1, std::memory_order_relaxed);
        s.slots[base + histogramBuckets].fetch_add(
            v, std::memory_order_relaxed);
    }

    struct CounterValue
    {
        std::string name;
        std::uint64_t value = 0;
    };

    struct DurationValue
    {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t totalNs = 0; //!< inclusive of child spans
        std::uint64_t selfNs = 0;  //!< exclusive of child spans

        /** Mean nanoseconds per recorded span (0 when empty). */
        double
        meanNs() const noexcept
        {
            return count ? static_cast<double>(totalNs) /
                               static_cast<double>(count)
                         : 0.0;
        }
    };

    struct GaugeValue
    {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        /** Valid only when count > 0. */
        std::uint64_t min = 0;
        std::uint64_t max = 0;

        /** Mean sampled value (0 when empty). */
        double
        mean() const noexcept
        {
            return count ? static_cast<double>(sum) /
                               static_cast<double>(count)
                         : 0.0;
        }
    };

    struct HistogramValue
    {
        std::string name;
        std::array<std::uint64_t, histogramBuckets> buckets = {};
        std::uint64_t sum = 0;

        /** Total recorded values (sum of buckets). */
        std::uint64_t
        count() const noexcept
        {
            std::uint64_t n = 0;
            for (std::uint64_t b : buckets)
                n += b;
            return n;
        }

        /** Mean recorded value (0 when empty). */
        double
        mean() const noexcept
        {
            std::uint64_t n = count();
            return n ? static_cast<double>(sum) /
                           static_cast<double>(n)
                     : 0.0;
        }
    };

    /** Merged view of every shard, sorted by name. */
    struct Snapshot
    {
        std::vector<CounterValue> counters;
        std::vector<DurationValue> durations;
        std::vector<GaugeValue> gauges;
        std::vector<HistogramValue> histograms;

        /** Value of counter @p name (0 when absent). */
        std::uint64_t counter(const std::string &name) const noexcept;

        /** Duration record for @p name (zeros when absent). */
        DurationValue duration(const std::string &name) const noexcept;

        /** Gauge record for @p name (zeros when absent). */
        GaugeValue gauge(const std::string &name) const noexcept;

        /** Histogram record for @p name (zeros when absent). */
        HistogramValue
        histogram(const std::string &name) const noexcept;
    };

    /** Merge-on-finalize: sum every thread's shard per slot. */
    Snapshot snapshot() const;

    /** Zero every shard's slots; registrations (and probes holding
     * slots) stay valid. */
    void reset() noexcept;

  private:
    struct Shard
    {
        std::atomic<std::uint64_t> slots[maxSlots] = {};
    };

    /** Out of line: the shards' PerThread constructor runs at run
     * time, so an inline constructor would be copied into the guard
     * path that global() inlines at every probe site. */
    Registry();

    std::size_t intern(const std::string &name, Kind kind);

    struct Entry
    {
        std::string name;
        std::size_t slot = 0;
        Kind kind = Kind::Counter;
    };

    mutable std::mutex mu;
    std::vector<Entry> entries;
    std::size_t nextSlot = 0;
    /** One shard per thread that ever recorded. */
    PerThread<Shard> shards;
};

/**
 * A named monotonic counter probe. Construct once (namespace-scope
 * static at the instrumentation site) and add() on the hot path.
 */
class Counter
{
  public:
    explicit Counter(const char *name)
        : slot(Registry::global().counterSlot(name))
    {
    }

    void
    add(std::uint64_t n = 1) noexcept
    {
        if (enabled())
            Registry::global().add(slot, n);
    }

  private:
    std::size_t slot;
};

/**
 * A histogram with per-app label breakdowns: every record() feeds the
 * aggregate histogram, and values for the first maxLabeledApps uids
 * (the paper's Table-1 roster leads the standard app list) also feed
 * a `NAME.appU` histogram, interned lazily on first sight. Interning
 * is idempotent under the registry lock, so racing first-records are
 * safe.
 */
class AppHistogram
{
  public:
    static constexpr std::size_t maxLabeledApps = 8;

    explicit AppHistogram(const char *name)
        : base(Registry::global().histogramSlot(name)), prefix(name)
    {
    }

    void
    record(std::uint32_t uid, std::uint64_t v) noexcept
    {
        if (!enabled())
            return;
        Registry &r = Registry::global();
        r.recordHistogram(base, v);
        if (uid < maxLabeledApps) {
            std::size_t b =
                perApp[uid].load(std::memory_order_acquire);
            if (b == 0)
                b = internApp(uid);
            r.recordHistogram(b - 1, v);
        }
    }

  private:
    /** Intern `prefix.appU`; returns slot base + 1 (0 = unset). */
    std::size_t internApp(std::uint32_t uid);

    std::size_t base;
    std::string prefix;
    std::atomic<std::size_t> perApp[maxLabeledApps] = {};
};

/**
 * A named host-time span probe, a namespace-scope static at the
 * instrumentation site: one registry duration and, optionally, the
 * trace event (and its arg key) its spans emit while tracing is on.
 */
struct SpanProbe
{
    explicit SpanProbe(const char *name, const char *trace_name = nullptr,
                       const char *arg_key = nullptr)
        : base(Registry::global().durationSlot(name)),
          traceName(trace_name), argKey(arg_key)
    {
    }

    const std::size_t base;
    const char *const traceName;
    const char *const argKey;
};

/**
 * RAII span of a SpanProbe; it reads the host clock once at each end.
 * With telemetry on at construction it records its inclusive ns and
 * its self ns (inclusive minus its direct children's inclusive). Its
 * parent is the innermost recording span open on its thread, so self
 * times add up to the outermost spans' inclusive time. With tracing
 * on at construction it emits its probe's event, if named, with @p arg.
 */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const SpanProbe &p, std::uint64_t arg = 0) noexcept
        : probe(p), argValue(arg), recording(enabled()),
          tracing(p.traceName && traceEnabled())
    {
        if (recording || tracing)
            open();
    }

    ~ScopedSpan()
    {
        if (recording || tracing)
            close();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    void open() noexcept;
    void close() noexcept;

    const SpanProbe &probe;
    std::uint64_t argValue;
    bool recording;
    bool tracing;
    ScopedSpan *parent = nullptr;
    std::uint64_t startNs = 0;
    std::uint64_t childNs = 0;
};

} // namespace ariadne::telemetry

#endif // ARIADNE_TELEMETRY_TELEMETRY_HH
