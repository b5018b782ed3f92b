/**
 * @file
 * Application behaviour generator.
 *
 * An AppInstance is the runtime model of one application: it owns the
 * ground-truth hotness of every page and produces the event sequences
 * a session driver feeds into the simulated system:
 *
 *  - coldLaunch(): allocate the initial working set (launch data
 *    first, which is the ground-truth hot set);
 *  - execute(dt): grow the footprint along the Table 1 volume curve
 *    and re-touch warm pages;
 *  - relaunch(): churn the hot set with the paper's Fig. 5 statistics
 *    (hotSimilarity kept hot, reuseFraction kept hot-or-warm) and
 *    emit the relaunch access sequence with run-based locality
 *    matching Table 3's consecutive-sector probabilities.
 */

#ifndef ARIADNE_WORKLOAD_GENERATOR_HH
#define ARIADNE_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "mem/page.hh"
#include "sim/rng.hh"
#include "workload/app_model.hh"

namespace ariadne
{

/** One page access produced by an AppInstance. */
struct TouchEvent
{
    Pfn pfn = invalidPfn;
    std::uint32_t version = 0;
    Hotness truth = Hotness::Cold;
    bool newAllocation = false;
    bool write = false;
};

/** Runtime model of one application. */
class AppInstance
{
  public:
    /**
     * @param profile Static behaviour description.
     * @param scale Footprint scale factor (1.0 = paper volumes);
     * benches run scaled down and rescale latencies
     * (RelaunchStats::fullScaleNs).
     * @param seed Deterministic seed for this instance's choices.
     */
    AppInstance(AppProfile profile, double scale, std::uint64_t seed);

    const AppProfile &profile() const noexcept { return prof; }

    /** First launch: allocates the initial working set. */
    std::vector<TouchEvent> coldLaunch();

    /** Foreground execution for @p dt; grows and touches pages. */
    std::vector<TouchEvent> execute(Tick dt);

    /**
     * Hot relaunch: churns the hot set and returns the relaunch
     * access sequence (hot pages only, locality-ordered).
     */
    std::vector<TouchEvent> relaunch();

    /** Ground-truth hotness of a page (w.r.t. the next relaunch). */
    Hotness truthOf(Pfn pfn) const;

    /** Current content version of a page. */
    std::uint32_t versionOf(Pfn pfn) const;

    /** Total pages allocated so far. */
    std::size_t pageCount() const noexcept { return pages.size(); }

    /** Current hot set in canonical access order. */
    const std::vector<Pfn> &hotSet() const noexcept { return hotList; }

    /** Hot set of the previous relaunch (empty before the first). */
    const std::vector<Pfn> &
    previousHotSet() const noexcept
    {
        return prevHotList;
    }

    /** Current warm pages (unordered). */
    const std::vector<Pfn> &warmSet() const noexcept { return warmList; }

    /** Current cold pages (unordered). */
    const std::vector<Pfn> &coldSet() const noexcept { return coldList; }

    /** Accumulated foreground age. */
    Tick age() const noexcept { return ageNs; }

    /** Anonymous bytes currently allocated (scaled). */
    std::size_t
    anonBytes() const noexcept
    {
        return pages.size() * pageSize;
    }

  private:
    struct PageState
    {
        Hotness truth = Hotness::Cold;
        std::uint32_t version = 0;
    };

    /** Allocate a fresh page with @p truth; returns its event. */
    TouchEvent allocatePage(Hotness truth);

    /** Grow the footprint to match the profile curve at current age. */
    void appendGrowth(std::vector<TouchEvent> &events,
                      std::size_t target_pages);

    /**
     * Emit @p order indices with run-based locality. Returns a
     * reference to a member scratch vector, valid until the next
     * call — relaunch() runs this for every hot set, so the three
     * working vectors are reused instead of reallocated per call.
     */
    const std::vector<std::uint32_t> &localityOrder(std::size_t n);

    AppProfile prof;
    double scale;
    Rng rng;

    /** Indexed by pfn: pfns are handed out densely from 0 and never
     * freed, so page state is a flat array rather than a hash map. */
    std::vector<PageState> pages;
    std::vector<Pfn> hotList;     //!< canonical relaunch order
    std::vector<Pfn> prevHotList;
    std::vector<Pfn> warmList;
    std::vector<Pfn> coldList;

    // localityOrder and relaunch working memory, reused across calls.
    std::vector<std::uint32_t> orderScratch;
    std::vector<std::uint32_t> unvisitedScratch;
    std::vector<std::uint32_t> positionScratch;
    std::vector<Pfn> newHotScratch;
    std::vector<Pfn> demotedWarmScratch;

    Pfn nextPfn = 0;
    Tick ageNs = 0;
    std::size_t hotTargetPages = 0;
    bool launched = false;
};

} // namespace ariadne

#endif // ARIADNE_WORKLOAD_GENERATOR_HH
