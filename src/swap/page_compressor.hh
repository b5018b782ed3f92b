/**
 * @file
 * Page compression service: the simulator's one sizing call.
 *
 * The paper's size-adaptive compression reaches the simulator as one
 * fact per compressed unit, its exact compressed size. compressedSize()
 * produces it by materializing the unit's pages back to back, framing
 * them with ChunkedFrame at the requested chunk size, and returning the
 * frame length; a single page is a one-page unit. Every call runs the
 * real codec over real synthesized bytes, and nothing is cached (the
 * README's Performance section records the measurements behind
 * that).
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

/** Reference to one page's content. */
struct PageRef
{
    PageKey key;
    std::uint32_t version = 0;
};

/** Materializes page contents and sizes them with a real codec. */
class PageCompressor
{
  public:
    explicit PageCompressor(const PageContentSource &source)
        : content(source)
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
    const PageContentSource &content;
    /** Lazily created per-codec batch state, indexed by CodecKind
     * (stays null for codecs without one). */
    std::unique_ptr<Codec::BatchState> batchStates[4];
    std::vector<std::uint8_t> unitScratch;  //!< materialized pages
    std::vector<std::uint8_t> frameScratch; //!< reused frame output
    std::vector<std::uint8_t> chunkScratch; //!< reused codec dst
    std::uint64_t compressedVolume = 0;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_PAGE_COMPRESSOR_HH
