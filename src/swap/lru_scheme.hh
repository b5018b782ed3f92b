/**
 * @file
 * Per-app LRU reclaim shared by the ZRAM, ZSWAP and SWAP baselines.
 *
 * Android groups anonymous pages per application and reclaims in LRU
 * order across applications (§2.2): the victim app is the least
 * recently used one that still has resident pages, and its LRU-tail
 * pages go first, up to reclaimBatchPages at a time. LruScheme owns
 * that policy; a subclass decides only what happens to each victim
 * (evict()) and how a swap-in is charged, then hands the page back
 * through readmit().
 */

#ifndef ARIADNE_SWAP_LRU_SCHEME_HH
#define ARIADNE_SWAP_LRU_SCHEME_HH

#include <memory>
#include <vector>

#include "mem/lru_list.hh"
#include "swap/scheme.hh"

namespace ariadne
{

/** A swap scheme that reclaims per-app LRU tails, oldest app first. */
class LruScheme : public SwapScheme
{
  public:
    void onAdmit(PageMeta &page) override;
    void onAccess(PageMeta &page) override;
    std::size_t reclaim(std::size_t pages, bool direct) override;

  protected:
    explicit LruScheme(SwapContext context) : SwapScheme(context) {}

    /**
     * Move @p victim's data out of DRAM (compress it, write it to
     * flash, or lose it) and set its location. The page is already
     * off its LRU list; LruScheme releases its DRAM page afterwards.
     * @param synchronous True on the direct-reclaim fault path.
     */
    virtual void evict(PageMeta &victim, bool synchronous) = 0;

    /** Resident pages on @p uid's LRU list. */
    std::size_t residentPages(AppId uid);

    /** Evict up to @p limit LRU-tail pages of @p uid.
     * @return the pages evicted. */
    std::size_t evictTail(AppId uid, std::size_t limit,
                          bool synchronous);

    /**
     * Finish a swap-in: take a DRAM page (direct-reclaiming if
     * needed), mark @p page resident and put it at its app's MRU
     * end.
     */
    void readmit(PageMeta &page);

  private:
    struct AppState
    {
        AppState(AppId uid_, std::uint64_t *ops)
            : uid(uid_), resident(ops)
        {}
        AppId uid;
        LruList resident;
        Tick lastAccess = 0;
    };

    AppState &stateFor(AppId uid);
    AppState *oldestAppWithPages();

    /** Sorted by uid (intrusive list heads need stable addresses,
     * hence unique_ptr); victim scans run in uid order, so the
     * lowest uid wins a lastAccess tie. */
    std::vector<std::unique_ptr<AppState>> appStates;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_LRU_SCHEME_HH
