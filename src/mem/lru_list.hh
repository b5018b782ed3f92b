/**
 * @file
 * Intrusive O(1) LRU list over PageMeta records.
 *
 * HotnessOrg's cost argument rests on LRU list operations being ~100x
 * cheaper than swaps (§6.4); every operation here is O(1) and is
 * counted so experiments can report list-operation overhead exactly.
 */

#ifndef ARIADNE_MEM_LRU_LIST_HH
#define ARIADNE_MEM_LRU_LIST_HH

#include <cstddef>
#include <cstdint>

#include "mem/page.hh"
#include "sim/log.hh"

namespace ariadne
{

/**
 * Doubly-linked intrusive LRU list. Front = most recently used,
 * back = least recently used. A page may be on at most one list; the
 * owner pointer catches violations.
 */
class LruList
{
  public:
    /**
     * @param op_count Optional shared count incremented once per list
     * mutation (used to account list-op CPU cost).
     */
    explicit LruList(std::uint64_t *op_count = nullptr) noexcept
        : ops(op_count)
    {}

    LruList(const LruList &) = delete;
    LruList &operator=(const LruList &) = delete;

    /** Insert @p page at the MRU end; page must not be on any list.
     * Inline: list surgery runs once or twice per simulated page
     * touch, so these are the fleet driver's hottest leaf calls. */
    void
    pushFront(PageMeta &page)
    {
        panicIf(page.lruOwner != nullptr,
                "pushFront: page already on a list");
        page.lruPrev = nullptr;
        page.lruNext = head;
        if (head)
            head->lruPrev = &page;
        head = &page;
        if (!tail)
            tail = &page;
        page.lruOwner = this;
        ++count;
        countOp();
    }

    /** Insert @p page at the LRU end; page must not be on any list. */
    void
    pushBack(PageMeta &page)
    {
        panicIf(page.lruOwner != nullptr,
                "pushBack: page already on a list");
        page.lruNext = nullptr;
        page.lruPrev = tail;
        if (tail)
            tail->lruNext = &page;
        tail = &page;
        if (!head)
            head = &page;
        page.lruOwner = this;
        ++count;
        countOp();
    }

    /** Unlink @p page; it must be on this list. */
    void
    remove(PageMeta &page)
    {
        panicIf(page.lruOwner != this, "remove: page not on this list");
        if (page.lruPrev)
            page.lruPrev->lruNext = page.lruNext;
        else
            head = page.lruNext;
        if (page.lruNext)
            page.lruNext->lruPrev = page.lruPrev;
        else
            tail = page.lruPrev;
        page.lruPrev = page.lruNext = nullptr;
        page.lruOwner = nullptr;
        --count;
        countOp();
    }

    /** Move @p page (already on this list) to the MRU end. */
    void
    touch(PageMeta &page)
    {
        panicIf(page.lruOwner != this, "touch: page not on this list");
        if (head == &page) {
            countOp();
            return;
        }
        remove(page);
        pushFront(page);
    }

    /** Remove and return the LRU victim; nullptr when empty. */
    PageMeta *
    popBack()
    {
        if (!tail)
            return nullptr;
        PageMeta *victim = tail;
        remove(*victim);
        return victim;
    }

    /** Remove and return the MRU page; nullptr when empty. */
    PageMeta *
    popFront()
    {
        if (!head)
            return nullptr;
        PageMeta *first = head;
        remove(*first);
        return first;
    }

    /** MRU page without removal; nullptr when empty. */
    PageMeta *front() const noexcept { return head; }

    /** LRU page without removal; nullptr when empty. */
    PageMeta *back() const noexcept { return tail; }

    std::size_t size() const noexcept { return count; }
    bool empty() const noexcept { return count == 0; }

    /** True when @p page is linked on this particular list. */
    bool
    contains(const PageMeta &page) const noexcept
    {
        return page.lruOwner == this;
    }

    /** The list @p page is linked on; nullptr when it is on none. */
    static LruList *
    ownerOf(const PageMeta &page) noexcept
    {
        return page.lruOwner;
    }

  private:
    void countOp() noexcept
    {
        if (ops)
            ++*ops;
    }

    PageMeta *head = nullptr;
    PageMeta *tail = nullptr;
    std::size_t count = 0;
    std::uint64_t *ops;
};

} // namespace ariadne

#endif // ARIADNE_MEM_LRU_LIST_HH
