/**
 * @file
 * Anonymous-page metadata.
 *
 * The simulator tracks anonymous pages as metadata records; page
 * *contents* are a deterministic function of (uid, pfn, version)
 * materialized on demand by a PageContentSource (the workload's
 * synthesizer). This keeps host memory bounded while every
 * compression still runs the real codec over real bytes.
 */

#ifndef ARIADNE_MEM_PAGE_HH
#define ARIADNE_MEM_PAGE_HH

#include <cstdint>

#include "compress/codec.hh"
#include "sim/types.hh"

namespace ariadne
{

class LruList;

/**
 * Hotness level of anonymous data (§1): hot is used during relaunch,
 * warm potentially during execution after relaunch, cold usually not
 * again. Used both as workload ground truth and as the level of the
 * list a scheme keeps a page on.
 */
enum class Hotness : std::uint8_t { Hot = 0, Warm = 1, Cold = 2 };

/** Stable display name of a hotness level. */
const char *hotnessName(Hotness h) noexcept;

/** Where a page's data currently lives. */
enum class PageLocation : std::uint8_t
{
    Resident, //!< uncompressed in main memory
    Zpool,    //!< compressed in the DRAM zpool
    Flash,    //!< in the flash swap space
    Staged,   //!< pre-decompressed in the PreDecomp buffer
    Lost,     //!< dropped under extreme pressure (app data loss)
};

/** Identity of a page: owning app plus page frame number. */
struct PageKey
{
    AppId uid = invalidApp;
    Pfn pfn = invalidPfn;

    bool operator==(const PageKey &o) const noexcept = default;
};

/** Reference to one page's content. */
struct PageRef
{
    PageKey key;
    std::uint32_t version = 0;
};

/**
 * Metadata record for one anonymous page, one cache line on 64-bit
 * hosts. Contains intrusive LRU hooks managed exclusively by LruList.
 */
struct PageMeta
{
    PageKey key;
    /** Content version; bumps when the app overwrites the page. */
    std::uint32_t version = 0;
    /** Ground-truth hotness assigned by the workload generator. */
    Hotness truth = Hotness::Cold;
    /** Where the page's data currently lives. */
    PageLocation location = PageLocation::Resident;
    /** Set while AriadneScheme holds a PreDecomp prediction that this
     * page's next touch fires (its map is probed only then). */
    bool predictionArmed = false;
    /** zpool object holding this page (invalid when not in zpool). */
    std::uint64_t objectId = UINT64_MAX;
    /** Flash slot holding this page (invalid when not in flash). */
    std::uint64_t flashSlot = UINT64_MAX;

    // Intrusive LRU hooks; only LruList may touch these.
    PageMeta *lruPrev = nullptr;
    PageMeta *lruNext = nullptr;
    LruList *lruOwner = nullptr;
};

static_assert(sizeof(void *) != 8 || sizeof(PageMeta) == 64,
              "PageMeta should fill exactly one cache line");

/**
 * Supplier of page contents. Implemented by the workload synthesizer;
 * materialize() must be a pure function of (uid, pfn, version) so the
 * same page always yields identical bytes.
 */
class PageContentSource
{
  public:
    virtual ~PageContentSource() = default;

    /** Fill @p out (pageSize bytes) with the page's contents. */
    virtual void materialize(const PageKey &key, std::uint32_t version,
                             MutableBytes out) const = 0;
};

} // namespace ariadne

#endif // ARIADNE_MEM_PAGE_HH
