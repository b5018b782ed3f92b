/**
 * @file
 * Slab arena for PageMeta records.
 *
 * The simulator's hot loop allocates page metadata for every first
 * touch; a general-purpose heap allocation per page (plus the hashed
 * map that used to own the unique_ptrs) dominated that loop. The
 * arena is a bump allocator over fixed-size slabs instead:
 *
 *  - a PageMeta's address is stable for its whole lifetime, so the
 *    intrusive LruList hooks and the zpool cookies that store raw
 *    PageMeta pointers stay valid across any number of later
 *    allocations;
 *  - pages live until their session ends, so records are never freed
 *    one by one: reset() recycles the whole arena for the next
 *    simulated session, and a fleet worker thread reuses one
 *    warmed-up arena instead of re-faulting fresh slabs per session.
 */

#ifndef ARIADNE_MEM_PAGE_ARENA_HH
#define ARIADNE_MEM_PAGE_ARENA_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/page.hh"

namespace ariadne
{

/** Bump allocator over slabs of PageMeta records. */
class PageArena
{
  public:
    /** Records per slab. */
    static constexpr std::size_t slabPages = std::size_t{1} << 12;

    PageArena() = default;
    PageArena(const PageArena &) = delete;
    PageArena &operator=(const PageArena &) = delete;

    /**
     * Allocate a record, initialized as a fresh PageMeta. Never
     * invalidates previously returned pointers.
     */
    PageMeta *alloc();

    /**
     * Recycle the arena for a fresh session: the slabs keep their
     * memory and alloc() hands their records out again. All
     * outstanding PageMeta pointers become invalid; the caller must
     * have dropped every structure that stored them (LRU lists, page
     * directories, zpool cookies).
     */
    void reset() noexcept { used = 0; }

    /** Records handed out since construction or the last reset(). */
    std::size_t liveCount() const noexcept { return used; }

    /** Slabs allocated so far. */
    std::size_t slabCount() const noexcept { return slabs.size(); }

  private:
    std::vector<std::unique_ptr<PageMeta[]>> slabs;
    std::size_t used = 0;
};

/**
 * Dense per-app page-frame bitmap (pfns are allocated densely from 0
 * by the workload generator). Used for relaunch dedup and for the
 * touched-page sets Fig. 14 scores, where an unordered_set<Pfn> would
 * hash every insert.
 */
class PfnBitmap
{
  public:
    /** Mark @p pfn; returns true when it was newly set. */
    bool
    set(Pfn pfn)
    {
        std::size_t word = static_cast<std::size_t>(pfn >> 6);
        if (word >= words.size())
            words.resize(word + 1 + words.size() / 2, 0);
        std::uint64_t bit = std::uint64_t{1} << (pfn & 63);
        if (words[word] & bit)
            return false;
        words[word] |= bit;
        return true;
    }

    /** True when @p pfn is marked. */
    bool
    test(Pfn pfn) const noexcept
    {
        std::size_t word = static_cast<std::size_t>(pfn >> 6);
        return word < words.size() &&
               (words[word] >> (pfn & 63)) & 1;
    }

    /** Clear all marks, keeping capacity. */
    void
    clear() noexcept
    {
        for (std::uint64_t &w : words)
            w = 0;
    }

    /** All marked pfns in ascending order. */
    std::vector<Pfn> toSortedVector() const;

    bool
    empty() const noexcept
    {
        for (std::uint64_t w : words)
            if (w)
                return false;
        return true;
    }

  private:
    std::vector<std::uint64_t> words;
};

} // namespace ariadne

#endif // ARIADNE_MEM_PAGE_ARENA_HH
