/**
 * @file
 * HotnessOrg — low-overhead hotness-aware data organization (§4.2).
 *
 * Keeps three LRU lists (hot / warm / cold) per application instead
 * of the kernel's two, plus an LRU order across applications:
 *
 *  - hotness initialization: the first profile-sized batch of pages
 *    admitted during a launch joins the hot list; later allocations
 *    join the cold list;
 *  - promotion: cold pages touched during execution move to warm
 *    (mirrors the kernel's inactive->active promotion);
 *  - relaunch update: when a relaunch begins, the whole old hot list
 *    is demoted to warm and every page touched during the relaunch
 *    window joins the hot list;
 *  - eviction order: cold first (app-LRU order), then warm, then —
 *    only if unavoidable — hot.
 *
 * A page's level is the level of the list it is on. Warm is a chain
 * of lists: its MRU list, which touched and swapped-in pages join,
 * then every retired hot list, oldest retirement first, so the newest
 * sits at warm's very LRU end. That is where a page-by-page drain of
 * the old hot list would put its pages, so the relaunch update moves
 * the hot list object itself onto the chain and takes an empty list
 * (a recycled one when there is one) as hot: demotion is O(1), not a
 * walk over the hot set. A retired list leaves the chain, and is
 * recycled, the moment its last page leaves it, so warm's MRU and LRU
 * pages are always at the chain's two ends.
 *
 * Lists hold resident pages only; everything is O(1) list surgery
 * with no data movement, preserving the paper's overhead argument.
 * The op count still charges the two list ops per demoted page that
 * the drain would take, so simulated CPU does not depend on how the
 * demotion is done.
 */

#ifndef ARIADNE_CORE_HOTNESS_ORG_HH
#define ARIADNE_CORE_HOTNESS_ORG_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/profile_store.hh"
#include "mem/lru_list.hh"
#include "mem/page_arena.hh"

namespace ariadne
{

/** Three-list per-app data organization with cross-app LRU. */
class HotnessOrg
{
  public:
    /**
     * @param op_count Shared LRU operation count (CPU charging).
     * @param profiles Hot-set size estimates for initialization.
     */
    HotnessOrg(std::uint64_t *op_count, ProfileStore &profiles)
        : ops(op_count), profileStore(profiles)
    {}

    /** New resident page admitted (first allocation). */
    void admit(PageMeta &page, Tick now);

    /** Resident page touched by the app. */
    void touchResident(PageMeta &page, Tick now);

    /**
     * Page became resident again after a swap-in fault. Joins hot if
     * the app is inside a relaunch window, else warm.
     */
    void placeAfterSwapIn(PageMeta &page, Tick now);

    /**
     * Sibling page of a decompressed cold unit that was *not* the
     * faulting page: resident now, still presumed cold.
     */
    void placeColdSibling(PageMeta &page, Tick now);

    /** Relaunch window control. */
    void beginRelaunch(AppId uid, Tick now);
    void endRelaunch(AppId uid);

    /** True while @p uid is inside a relaunch window. */
    bool inRelaunch(AppId uid) const;

    /**
     * LRU victim selection: the tail page of the given level's list
     * of the least recently used app that has one.
     * @return nullptr when no app has pages at that level.
     */
    PageMeta *popVictim(Hotness level);

    /** Victim preview without removal. */
    PageMeta *peekVictim(Hotness level);

    /** Pop the LRU victim of @p level from a specific app. */
    PageMeta *popVictim(AppId uid, Hotness level);

    /** Resident pages on @p uid's list of @p level. */
    std::size_t listSize(AppId uid, Hotness level) const;

    /** Resident pages at @p level summed across every app (gauge
     * sampling; a handful of apps, so a cheap read-only walk). */
    std::size_t population(Hotness level) const;

    /** Level of the list @p page is on; @p page must be on one. */
    Hotness levelOf(const PageMeta &page) const;

    /**
     * The scheme's current relaunch prediction for @p uid: pages
     * touched during the most recent relaunch window (falls back to
     * the initialization-time hot list before the first relaunch).
     */
    std::vector<PageKey> predictedHotSet(AppId uid) const;

  private:
    /** One LRU list and its level. Retired hot lists also link into
     * their app's warm chain. */
    struct Tier : LruList
    {
        Tier(std::uint64_t *ops, Hotness level_)
            : LruList(ops), level(level_)
        {}

        Hotness level;
        Tier *newer = nullptr; //!< toward warm's MRU end
        Tier *older = nullptr; //!< toward warm's LRU end
    };

    struct AppLists
    {
        AppLists(AppId uid_, Tier *hot_, std::uint64_t *ops)
            : uid(uid_), hot(hot_), warm(ops, Hotness::Warm),
              cold(ops, Hotness::Cold)
        {}

        AppId uid;
        Tier *hot;
        /** Warm's MRU list, the head of the warm chain. */
        Tier warm;
        /** Warm's LRU list: the newest retirement, else `warm`. */
        Tier *warmTail = &warm;
        Tier cold;
        Tick lastAccess = 0;
        bool relaunchActive = false;
        std::size_t hotAdmitted = 0;   //!< launch-time hot fill count
        std::size_t hotInitTarget = 0; //!< from ProfileStore
        bool initialized = false;
        /** Pages touched during the last relaunch window. */
        std::vector<PageKey> relaunchTouched;
        PfnBitmap relaunchSeen;
    };

    AppLists &listsFor(AppId uid);
    const AppLists *findLists(AppId uid) const;
    AppLists *findLists(AppId uid);
    static Tier &tierOf(const PageMeta &page);
    /** The list whose LRU page is @p app's victim at @p level. */
    static Tier &victimList(AppLists &app, Hotness level);
    static std::size_t sizeAt(const AppLists &app, Hotness level);
    /** Unlink @p page from @p list, recycling a drained retirement. */
    void take(AppLists &app, Tier &list, PageMeta &page);
    /** The least recently used app with pages at @p level. */
    AppLists *oldestWith(Hotness level);
    PageMeta *popVictim(AppLists *app, Hotness level);
    Tier *spareHotList();
    void noteRelaunchTouch(AppLists &app, const PageMeta &page);

    std::uint64_t *ops;
    ProfileStore &profileStore;
    /** Every hot and retired list (address-stable). */
    std::deque<Tier> tiers;
    /** Drained lists ready to serve as some app's next hot list. */
    std::vector<Tier *> spares;
    /** Sorted by uid. LruList is address-stable (intrusive heads), so
     * entries live behind unique_ptr; victim scans walk the flat
     * vector in uid order exactly as the old std::map iteration did. */
    std::vector<std::unique_ptr<AppLists>> apps;
    /** Touches arrive in long single-app runs; remembering the last
     * resolved entry turns almost every listsFor into one compare
     * (AppLists addresses are stable, so the cache never dangles). */
    AppLists *lastLists = nullptr;
};

} // namespace ariadne

#endif // ARIADNE_CORE_HOTNESS_ORG_HH
