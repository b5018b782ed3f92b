/**
 * @file
 * Page compression service with size memoization.
 *
 * Every compression in the simulator runs a real codec over real
 * synthesized bytes; this helper materializes page contents, invokes
 * the chunked framing layer, and returns the true compressed size.
 * Because contents are pure functions of (uid, pfn, version), single-
 * page results are cached on that identity. Repeats are rare: on
 * scenarios/heavy.cfg (16 sessions) the cache hits 5,625 of 224,939
 * lookups, and on scenarios/daily.cfg 0 of 8, because Ariadne's
 * multi-page units bypass it. The sizes stay exact either way.
 *
 * The cache is a power-of-two open-addressing flat table
 * (linear probing, splitmix64-mixed keys) rather than a node-based
 * unordered_map: one cache line per probe, no per-entry allocation.
 * Batch sizing (compressedSizeEach) reuses one content buffer across
 * the whole batch so a reclaim sweep does a single materialize +
 * codec loop instead of an allocation and dispatch per page. Every
 * codec call goes through a cached per-codec Codec::BatchState and
 * reused frame/chunk buffers, so a cache miss costs zero heap
 * allocations and no per-page hash-table refill in the LZ codecs.
 */

#ifndef ARIADNE_SWAP_PAGE_COMPRESSOR_HH
#define ARIADNE_SWAP_PAGE_COMPRESSOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compress/chunked.hh"
#include "compress/codec.hh"
#include "mem/page.hh"

namespace ariadne
{

/** Reference to one page's content. */
struct PageRef
{
    PageKey key;
    std::uint32_t version = 0;
};

/** Materializes and compresses page contents, caching sizes. */
class PageCompressor
{
  public:
    explicit PageCompressor(const PageContentSource &source)
        : content(source), scratch(pageSize)
    {
        slots.resize(initialSlots);
    }

    /**
     * Compressed size of one page framed with @p chunk_bytes chunks.
     * Memoized on (page, codec, chunk size).
     */
    std::size_t compressedSizeOne(const PageRef &page,
                                  const Codec &codec,
                                  std::size_t chunk_bytes);

    /**
     * Memoized compressed size of each page in @p pages,
     * independently (the batch equivalent of compressedSizeOne):
     * @p sizes[i] receives the size of pages[i]. Misses share one
     * content buffer and run in one codec loop.
     */
    void compressedSizeEach(const std::vector<PageRef> &pages,
                            const Codec &codec,
                            std::size_t chunk_bytes,
                            std::vector<std::size_t> &sizes);

    /**
     * Compressed size of a multi-page unit: pages are concatenated in
     * order and framed with @p chunk_bytes chunks (Ariadne's large-
     * size cold units). Not memoized — units form once per eviction.
     */
    std::size_t compressedSizeMany(const std::vector<PageRef> &pages,
                                   const Codec &codec,
                                   std::size_t chunk_bytes);

    /** Cache hits observed (for tests and reports). */
    std::uint64_t cacheHits() const noexcept { return hits; }

    /** Cache misses (real compressions of single pages). */
    std::uint64_t cacheMisses() const noexcept { return misses; }

    /** Total uncompressed bytes actually run through a codec. */
    std::uint64_t
    bytesCompressed() const noexcept
    {
        return compressedVolume;
    }

  private:
    /**
     * One open-addressing slot. The (codec, chunk) word doubles as
     * the occupancy marker: codec is 8 bits and chunk is far below
     * 2^32, so a real entry never equals emptyKey.
     */
    struct Slot
    {
        std::uint64_t pfnKey = 0;      //!< pfn
        std::uint64_t appKey = 0;      //!< (uid << 32) | version
        std::uint64_t codecKey = emptyKey; //!< (codec << 32) | chunk
        std::uint32_t csize = 0;
    };

    static constexpr std::uint64_t emptyKey = UINT64_MAX;
    /** Small enough that a fresh per-session table is a cheap zero
     * fill; the 70%-load doubling grows it on demand. */
    static constexpr std::size_t initialSlots = 1u << 12;

    static std::uint64_t
    mixSlotHash(std::uint64_t pfn_key, std::uint64_t app_key,
                std::uint64_t codec_key) noexcept
    {
        std::uint64_t h = pfn_key * 0x9e3779b97f4a7c15ULL;
        h ^= app_key;
        h = (h ^ (h >> 29)) * 0xbf58476d1ce4e5b9ULL;
        h ^= codec_key;
        return h ^ (h >> 31);
    }

    /** Probe for (keys); returns the matching or first empty slot. */
    Slot &findSlot(std::uint64_t pfn_key, std::uint64_t app_key,
                   std::uint64_t codec_key) noexcept;

    void growTable();

    /** Materialize+compress a page into the shared scratch buffer. */
    std::uint32_t compressMiss(const PageRef &page, const Codec &codec,
                               std::size_t chunk_bytes);

    /** Cached batch state for @p codec (created on first use). */
    Codec::BatchState *batchStateFor(const Codec &codec);

    /** Lazily created per-codec batch state, indexed by CodecKind. */
    struct BatchSlot
    {
        std::unique_ptr<Codec::BatchState> state;
        bool made = false;
    };

    const PageContentSource &content;
    std::vector<Slot> slots;
    std::size_t liveSlots = 0;
    std::vector<std::uint8_t> scratch;      //!< one page, reused
    std::vector<std::uint8_t> manyScratch;  //!< multi-page units
    std::vector<std::uint8_t> frameScratch; //!< reused frame output
    std::vector<std::uint8_t> chunkScratch; //!< reused codec dst
    BatchSlot batchStates[4];
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t compressedVolume = 0;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_PAGE_COMPRESSOR_HH
