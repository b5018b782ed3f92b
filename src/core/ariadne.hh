/**
 * @file
 * AriadneScheme — the paper's contribution (§4).
 *
 * Combines the three techniques on top of the zpool/flash substrate:
 *
 *  - HotnessOrg picks reclaim victims cold-first (then warm, then —
 *    only under emergency direct reclaim in EHL mode — hot);
 *  - AdaptiveComp compresses victims at a hotness-dependent chunk
 *    size, batching coldUnitPages() cold pages into one large unit;
 *  - PreDecomp speculatively decompresses the next object in zpool
 *    sector order into a small staging buffer during faults, hiding
 *    decompression latency behind application work.
 *
 * When the zpool fills, the compressed store spills *cold* units to
 * flash first (the paper's "cold data is swapped out first" policy),
 * keeping writes small because they are compressed.
 */

#ifndef ARIADNE_CORE_ARIADNE_HH
#define ARIADNE_CORE_ARIADNE_HH

#include <array>
#include <memory>
#include <unordered_map>

#include "compress/registry.hh"
#include "core/adaptive_comp.hh"
#include "core/config.hh"
#include "core/hotness_org.hh"
#include "core/predecomp.hh"
#include "core/profile_store.hh"
#include "swap/compressed_store.hh"
#include "swap/scheme.hh"
#include "swap/scheme_registry.hh"

namespace ariadne
{

/** Hotness-aware, size-adaptive compressed swap scheme. */
class AriadneScheme : public SwapScheme
{
  public:
    AriadneScheme(SwapContext context, AriadneConfig config);

    std::string name() const override { return cfg.toString(); }

    void onAdmit(PageMeta &page) override;
    void onAccess(PageMeta &page) override;
    SwapInResult swapIn(PageMeta &page) override;
    std::size_t reclaim(std::size_t pages, bool direct) override;

    void onRelaunchStart(AppId uid) override;
    void onRelaunchEnd(AppId uid) override;
    void onBackground(AppId uid) override;

    std::size_t
    compressedStoredBytes() const override
    {
        return store.storedBytes();
    }
    const Zpool *zpool() const override { return &store.zpool(); }
    const FlashDevice *flash() const override { return store.flash(); }

    bool
    levelPopulations(std::size_t &hot, std::size_t &warm,
                     std::size_t &cold) const override
    {
        hot = hotOrg.population(Hotness::Hot);
        warm = hotOrg.population(Hotness::Warm);
        cold = hotOrg.population(Hotness::Cold);
        return true;
    }

    /** Seed the per-app hot-set size profile (offline profiling). */
    void seedProfile(AppId uid, std::size_t hot_pages);

    /** The scheme's relaunch prediction for Fig. 14 scoring. */
    std::vector<PageKey> predictedHotSet(AppId uid) const;

    /** PreDecomp staging statistics. */
    const PreDecomp &preDecomp() const noexcept { return stagingBuf; }

    /** The hot, warm and cold lists. */
    const HotnessOrg &hotnessOrg() const noexcept { return hotOrg; }
    /** The lists, mutable: tests pop victims through it. */
    HotnessOrg &hotnessOrg() noexcept { return hotOrg; }

    /** Configuration in effect. */
    const AriadneConfig &config() const noexcept { return cfg; }

    /** Swap-in faults by the hotness the unit was compressed at. */
    std::uint64_t
    faultsByLevel(Hotness level) const noexcept
    {
        return faultsPerLevel[static_cast<std::size_t>(level)];
    }

    /** Multi-page units pre-swapped ahead of use (PreDecomp). */
    std::uint64_t
    preSwappedUnits() const noexcept
    {
        return preSwapCount;
    }

  private:
    /** Compress a batch of same-app victims into one unit. */
    void compressUnit(std::vector<PageMeta *> batch, Hotness level,
                      bool synchronous);

    /** Try to stage / pre-swap the data owning zpool object @p obj. */
    void tryStage(ZObjectId obj);

    /** Remember that touching @p page should speculate on whatever
     * holds @p next's sector then. */
    void armPrediction(PageMeta &page, ZObjectId next);

    /** Fire and clear a pending prediction for @p page, if any. */
    void firePrediction(PageMeta &page);

    /** Make the pages of @p unit resident; faulting page is @p hit. */
    void residentizeUnit(CompUnit &unit, PageMeta *hit);

    AriadneConfig cfg;
    std::unique_ptr<Codec> codec;
    /** Objects are CompUnits; a cookie is the unit's id. */
    CompressedStore store;
    ProfileStore profiles;
    HotnessOrg hotOrg;
    AdaptiveComp units;
    PreDecomp stagingBuf;

    std::array<std::uint64_t, 3> faultsPerLevel{};

    /**
     * Prediction chain: after a speculative pre-swap, the first touch
     * of a pre-swapped page triggers speculation on the object at the
     * following sector, so sequential runs keep exactly one unit of
     * lookahead. An erased sector reads invalidObject: nothing stages.
     */
    std::unordered_map<const PageMeta *, Sector> pendingPredictions;
    std::uint64_t preSwapCount = 0;
};

/** Registry entry for `scheme = ariadne` (see scheme_registry.cc). */
SchemeInfo ariadneSchemeInfo();

} // namespace ariadne

#endif // ARIADNE_CORE_ARIADNE_HH
