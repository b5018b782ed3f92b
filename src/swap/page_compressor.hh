/**
 * @file
 * Page compression service: the simulator's one sizing call.
 *
 * The paper's size-adaptive compression reaches the simulator as one
 * fact per compressed unit, its exact compressed size. compressedSize()
 * produces it by materializing the unit's pages back to back, framing
 * them with ChunkedFrame at the requested chunk size, and returning the
 * frame length; a single page is a one-page unit.
 *
 * A compressor built with a UnitSizeMemo (a fleet worker's, lent by
 * MobileSystem) answers from it first: a unit whose codec, chunk size
 * and ordered (uid, pfn, version) pages it already sized returns the
 * stored size without materializing a page, running the codec or
 * recording a `compressor.*` span. Sizes are exact either way, since
 * page bytes are a pure function of that identity. A compressor
 * without one, as in the unit tests, examples and `perf_pages`, runs
 * the real codec over real synthesized bytes on every call.
 *
 * Each codec's Codec::BatchState and the content, frame and chunk
 * buffers are reused across calls, so a warmed-up compressor makes no
 * heap allocations.
 */

#ifndef ARIADNE_SWAP_PAGE_COMPRESSOR_HH
#define ARIADNE_SWAP_PAGE_COMPRESSOR_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "compress/codec.hh"
#include "mem/page.hh"

namespace ariadne
{

class UnitSizeMemo;

/** Materializes page contents and sizes them with a real codec. */
class PageCompressor
{
  public:
    /** @p sizes Optional memo to answer from and fill; not owned, and
     * bound to the apps @p source synthesizes. */
    explicit PageCompressor(const PageContentSource &source,
                            UnitSizeMemo *sizes = nullptr)
        : content(source), memo(sizes)
    {}

    /**
     * Compressed size of @p unit: its pages concatenated in order and
     * framed with @p chunk_bytes chunks. 0 for an empty unit.
     */
    std::size_t compressedSize(std::span<const PageRef> unit,
                               const Codec &codec,
                               std::size_t chunk_bytes);

    /** Total uncompressed bytes run through a codec. */
    std::uint64_t
    bytesCompressed() const noexcept
    {
        return compressedVolume;
    }

  private:
    /** Materialize @p unit and frame it with the codec. */
    std::size_t compressUnit(std::span<const PageRef> unit,
                             const Codec &codec,
                             std::size_t chunk_bytes);

    const PageContentSource &content;
    UnitSizeMemo *memo;
    /** Lazily created per-codec batch state, indexed by CodecKind. */
    std::unique_ptr<Codec::BatchState> batchStates[2];
    std::vector<std::uint8_t> unitScratch;  //!< materialized pages
    std::vector<std::uint8_t> frameScratch; //!< reused frame output
    std::vector<std::uint8_t> chunkScratch; //!< reused codec dst
    std::uint64_t compressedVolume = 0;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_PAGE_COMPRESSOR_HH
