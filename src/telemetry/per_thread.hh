/**
 * @file
 * Per-thread buffers: the one recording mechanism behind every
 * telemetry sink (Registry shards, TraceLog, JourneyLog and
 * TimelineRecorder).
 *
 * PerThread<T> gives each thread its own T, attached on first use and
 * kept until the PerThread is destroyed, so writers never lock.
 * Readers visit every T with forEach(), in attach order, and may only
 * read what its writer no longer changes (atomics, or buffers whose
 * writers have joined). The thread_local pointer belongs to T, so a
 * process holds one PerThread<T> per T: a second one panics.
 *
 * BoundedLog<Item, Cap> keeps each thread's first Cap items and counts
 * the rest as drops, so a truncated log is never taken for complete.
 */

#ifndef ARIADNE_TELEMETRY_PER_THREAD_HH
#define ARIADNE_TELEMETRY_PER_THREAD_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/log.hh"

namespace ariadne::telemetry
{

/** One T per thread that ever called local(), in attach order. */
template <typename T>
class PerThread
{
  public:
    PerThread()
    {
        static std::atomic<bool> constructed{false};
        panicIf(constructed.exchange(true),
                "second PerThread for one type (its thread pointers "
                "would alias the first one's)");
    }

    /** The calling thread's T: once attached, one TLS load and a
     * null check. */
    T &
    local()
    {
        thread_local T *t_local = nullptr;
        if (!t_local)
            t_local = &attach();
        return *t_local;
    }

    /** Call @p f with every attached T, in attach order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        std::lock_guard<std::mutex> lk(mu);
        for (const std::unique_ptr<T> &t : all)
            f(*t);
    }

  private:
    /** Out of line, so each inlined local() stays small. */
    __attribute__((noinline)) T &
    attach()
    {
        std::lock_guard<std::mutex> lk(mu);
        all.push_back(std::make_unique<T>());
        return *all.back();
    }

    mutable std::mutex mu;
    std::vector<std::unique_ptr<T>> all;
};

/** Per-thread append-only logs of at most Cap items each. */
template <typename Item, std::size_t Cap>
class BoundedLog
{
  public:
    /** Append @p item to the calling thread's log, or count it as
     * dropped once that log holds Cap items. */
    void
    push(const Item &item) noexcept
    {
        Buffer &b = buffers.local();
        if (b.items.size() >= Cap) {
            ++b.dropped;
            return;
        }
        b.items.push_back(item);
    }

    /** Every thread's items in push order, threads in attach order. */
    std::vector<Item>
    items() const
    {
        std::vector<Item> all;
        buffers.forEach([&](const Buffer &b) {
            all.insert(all.end(), b.items.begin(), b.items.end());
        });
        return all;
    }

    /** Items dropped past the cap, over all threads. */
    std::uint64_t
    dropped() const
    {
        std::uint64_t total = 0;
        buffers.forEach([&](const Buffer &b) { total += b.dropped; });
        return total;
    }

    /** Discard every thread's items and drop count. */
    void
    clear()
    {
        buffers.forEach([](Buffer &b) {
            b.items.clear();
            b.dropped = 0;
        });
    }

  private:
    struct Buffer
    {
        std::vector<Item> items;
        std::uint64_t dropped = 0;
    };

    PerThread<Buffer> buffers;
};

} // namespace ariadne::telemetry

#endif // ARIADNE_TELEMETRY_PER_THREAD_HH
