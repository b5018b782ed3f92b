/**
 * @file
 * AdaptiveComp — size-adaptive compression units (§4.3).
 *
 * Maps hotness to compression chunk size (Small for hot, Medium for
 * warm, Large for cold) and tracks *compression units*: a unit is one
 * compressed object in the zpool (or, after writeback, in flash)
 * covering one page (hot/warm) or coldUnitPages() pages batched
 * together (cold). Multi-page units are the source of the worst-case
 * behaviour the paper illustrates in Fig. 9(b): touching any page of
 * a unit decompresses the whole thing.
 */

#ifndef ARIADNE_CORE_ADAPTIVE_COMP_HH
#define ARIADNE_CORE_ADAPTIVE_COMP_HH

#include <cstdint>
#include <vector>

#include "core/config.hh"
#include "mem/flash.hh"
#include "mem/page.hh"
#include "mem/zpool.hh"

namespace ariadne
{

/** Handle to a compression unit. */
using UnitId = std::uint64_t;

/** Sentinel for "no unit". */
constexpr UnitId invalidUnit = UINT64_MAX;

/** One compressed unit: pages, framing, and current storage. */
struct CompUnit
{
    std::vector<PageMeta *> pages;
    std::size_t chunkBytes = 0;
    std::size_t csize = 0;
    /** Hotness of the data when it was compressed. */
    Hotness levelAtCompression = Hotness::Cold;
    /** zpool object when stored in DRAM (after writeback, each page
     * holds the unit's flash slot). */
    ZObjectId object = invalidObject;
    bool liveFlag = false;

    std::size_t
    uncompressedBytes() const noexcept
    {
        return pages.size() * pageSize;
    }
};

/** Unit registry plus the hotness -> chunk-size policy. */
class AdaptiveComp
{
  public:
    explicit AdaptiveComp(const AriadneConfig &config) : cfg(config) {}

    /** Chunk size used for data of hotness @p level (Table 5). */
    std::size_t
    chunkFor(Hotness level) const noexcept
    {
        switch (level) {
          case Hotness::Hot: return cfg.smallSize;
          case Hotness::Warm: return cfg.mediumSize;
          default: return cfg.largeSize;
        }
    }

    /** Register a new live unit; pages' objectId fields are set. */
    UnitId create(std::vector<PageMeta *> pages, std::size_t chunk_bytes,
                  std::size_t csize, Hotness level, ZObjectId object);

    /** Access a live unit. */
    CompUnit &unit(UnitId id);
    const CompUnit &unit(UnitId id) const;

    /** True when @p id refers to a live unit. */
    bool live(UnitId id) const noexcept;

    /** Destroy a unit (after its pages were swapped in or freed). */
    void destroy(UnitId id);

    /** Number of live units. */
    std::size_t liveCount() const noexcept { return liveUnits; }

  private:
    AriadneConfig cfg;
    std::vector<CompUnit> units;
    std::vector<UnitId> freeIds;
    std::size_t liveUnits = 0;
};

} // namespace ariadne

#endif // ARIADNE_CORE_ADAPTIVE_COMP_HH
