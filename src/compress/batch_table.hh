/**
 * @file
 * Shared batch state for the LZ-family codecs: a position hash table
 * reused across every buffer of a batch.
 *
 * A fresh per-call table must be filled with a "never stored"
 * sentinel; at page granularity that fill (32 KB for lz4, 16 KB for
 * lzo) costs more than the match search itself. The batch state
 * instead keeps one zero-filled table alive and *biases* stored
 * positions: a call claiming bias b stores position p as p + b, and
 * an entry e is a valid reference for that call iff e >= b (its
 * position is then e - b). Entries written by earlier buffers sit
 * below the current bias, so validity is exactly the fresh-table
 * sentinel test — the compressed output is byte-identical to a
 * stateless call, with no refill and no allocation per buffer.
 *
 * The bias grows monotonically by each buffer's length; when the next
 * claim would push a stored position past 32 bits, the table is
 * zero-refilled once and the bias restarts at 1 (amortized over ~4 GB
 * of input).
 */

#ifndef ARIADNE_COMPRESS_BATCH_TABLE_HH
#define ARIADNE_COMPRESS_BATCH_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "compress/codec.hh"

namespace ariadne::compress_detail
{

/** Biased position-table batch state shared by Lz4Codec/LzoCodec. */
class PosTableState final : public Codec::BatchState
{
  public:
    explicit PosTableState(std::size_t slots) : table(slots, 0) {}

    /**
     * Claim the bias window for an @p n byte buffer, zero-refilling
     * the table when the window would wrap 32 bits.
     * @return the bias the caller must add to stored positions.
     */
    std::uint32_t
    claim(std::size_t n)
    {
        if (n > std::size_t{0xffffffffu} - bias) {
            std::fill(table.begin(), table.end(), 0u);
            bias = 1;
        }
        std::uint32_t claimed = bias;
        bias = static_cast<std::uint32_t>(bias + n);
        return claimed;
    }

    /** Slots in the table (codec-specific hash size). */
    std::size_t slots() const noexcept { return table.size(); }

    /** The position table; entries are position + bias, 0 = empty. */
    std::uint32_t *data() noexcept { return table.data(); }

  private:
    std::vector<std::uint32_t> table;
    /** Bias of the next claim; positions stored as p + bias. */
    std::uint32_t bias = 1;
};

} // namespace ariadne::compress_detail

#endif // ARIADNE_COMPRESS_BATCH_TABLE_HH
