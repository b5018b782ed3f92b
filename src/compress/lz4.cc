#include "compress/lz4.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "compress/batch_table.hh"

namespace ariadne
{

namespace
{

constexpr std::size_t minMatch = 4;
constexpr std::size_t maxOffset = 65535;
constexpr unsigned hashBits = 13;
constexpr std::size_t hashSize = std::size_t{1} << hashBits;

std::uint32_t
read32(const std::uint8_t *p) noexcept
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint64_t
read64(const std::uint8_t *p) noexcept
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint32_t
hash32(std::uint32_t v) noexcept
{
    return (v * 2654435761u) >> (32 - hashBits);
}

std::size_t
boundFor(std::size_t n) noexcept
{
    // Worst case: one big literal run — token + n/255 continuation
    // bytes + literals, plus slack for the final sequence.
    return n + n / 255 + 16;
}

/**
 * The match loop, parameterized on a biased position table (see
 * batch_table.hh): @p table entries are position + @p bias, and only
 * entries >= bias reference this buffer. A zero-filled table with
 * bias 1 behaves exactly like a fresh sentinel-filled table.
 *
 * @tparam checkOffset false only when src.size() <= maxOffset + 1,
 * where every in-buffer distance fits the window and the range check
 * is vacuously true (the common page/chunk-sized call).
 */
template <bool checkOffset>
std::size_t
compressWith(ConstBytes src, MutableBytes dst, std::uint32_t *table,
             std::uint32_t bias)
{
    const std::size_t n = src.size();
    if (dst.size() < boundFor(n))
        return 0;

    const std::uint8_t *ip = src.data();
    const std::uint8_t *const iend = ip + n;
    const std::uint8_t *anchor = ip;
    std::uint8_t *op = dst.data();

    // Matches must leave at least minMatch readable bytes; stop the
    // search loop early enough that read32 stays in bounds.
    const std::uint8_t *const mflimit =
        (n >= minMatch + 1) ? iend - minMatch : ip;

    // Kept out of line: the probe loop below touches it once per
    // emitted sequence, and keeping its spill pressure away from the
    // per-byte path is worth the call.
    auto emit_sequence = [&](const std::uint8_t *lit_end,
                             std::size_t match_len,
                             std::size_t offset) __attribute__((noinline)) {
        std::size_t lit_len =
            static_cast<std::size_t>(lit_end - anchor);
        std::uint8_t *token = op++;
        std::uint8_t t = 0;
        if (lit_len >= 15) {
            t = 15 << 4;
            *token = t; // provisional; match nibble patched below
            std::size_t rest = lit_len - 15;
            while (rest >= 255) {
                *op++ = 255;
                rest -= 255;
            }
            *op++ = static_cast<std::uint8_t>(rest);
        } else {
            t = static_cast<std::uint8_t>(lit_len << 4);
            *token = t;
        }
        if (lit_len != 0) // anchor may be null for empty input
            std::memcpy(op, anchor, lit_len);
        op += lit_len;

        if (match_len == 0)
            return; // final literal-only sequence

        *op++ = static_cast<std::uint8_t>(offset & 0xff);
        *op++ = static_cast<std::uint8_t>((offset >> 8) & 0xff);

        std::size_t ml = match_len - minMatch;
        if (ml >= 15) {
            *token |= 15;
            std::size_t rest = ml - 15;
            while (rest >= 255) {
                *op++ = 255;
                rest -= 255;
            }
            *op++ = static_cast<std::uint8_t>(rest);
        } else {
            *token |= static_cast<std::uint8_t>(ml);
        }
    };

    // Sequence production for a confirmed match: extend forward,
    // eight bytes per compare (the first differing byte falls out of
    // a ctz), then byte-wise over the tail — the same length a byte
    // loop finds. Out of line for the same reason as emit_sequence:
    // it runs once per sequence, not once per byte.
    auto on_match = [&](std::uint32_t offset) __attribute__((noinline)) {
        const std::uint8_t *ref = ip - offset;
        const std::uint8_t *mip = ip + minMatch;
        const std::uint8_t *mref = ref + minMatch;
        bool diff_found = false;
        while (mip + 8 <= iend) {
            std::uint64_t diff = read64(mip) ^ read64(mref);
            if (diff) {
                mip += __builtin_ctzll(diff) >> 3;
                diff_found = true;
                break;
            }
            mip += 8;
            mref += 8;
        }
        if (!diff_found) {
            while (mip < iend && *mip == *mref) {
                ++mip;
                ++mref;
            }
        }
        std::size_t match_len = static_cast<std::size_t>(mip - ip);
        emit_sequence(ip, match_len, offset);
        ip += match_len;
        anchor = ip;
    };

    // Probe one position: hash the four bytes at ip (passed in as
    // @p val so literal runs can slice several probes out of one
    // 64-bit load), store, and on a hit emit the sequence. Advances
    // ip by 1 (literal) or by the match length; returns whether it
    // matched. The probe/store order — and so the output — is the
    // same as the one-position-per-load loop this replaces.
    auto try_match = [&](std::uint32_t val) -> bool {
        std::uint32_t h = hash32(val);
        auto cur_pos = static_cast<std::uint32_t>(ip - src.data());
        std::uint32_t offset =
            compress_detail::entryOffset(table[h], cur_pos, bias);
        table[h] = cur_pos + bias;

        // Entries below the bias (earlier buffers of the batch, or
        // never written) and beyond the window lie past the limit. A
        // far entry compares ip with itself, so its flag alone makes
        // the miss word nonzero: one branch per probe (see lzo.cc).
        std::uint32_t limit =
            checkOffset
                ? std::min(cur_pos, static_cast<std::uint32_t>(maxOffset))
                : cur_pos;
        std::uint32_t far = offset > limit;
        const std::uint8_t *ref = ip - (offset & (far - 1u));
        if (((read32(ref) ^ val) | far) == 0) {
            on_match(offset);
            return true;
        }
        ++ip;
        return false;
    };

    while (ip < mflimit) {
        if (ip + 8 <= iend && ip + 5 <= mflimit) {
            // One 64-bit load covers the probe values of five
            // consecutive positions; literal runs (the common case on
            // poorly-compressible pages) burn through them with no
            // further loads and — since the whole window is in
            // bounds — no per-probe limit checks. A match invalidates
            // the window: fall out and reload.
            std::uint64_t w = read64(ip);
            if (try_match(static_cast<std::uint32_t>(w)))
                continue;
            if (try_match(static_cast<std::uint32_t>(w >> 8)))
                continue;
            if (try_match(static_cast<std::uint32_t>(w >> 16)))
                continue;
            if (try_match(static_cast<std::uint32_t>(w >> 24)))
                continue;
            try_match(static_cast<std::uint32_t>(w >> 32));
        } else if (ip + 8 <= iend) {
            std::uint64_t w = read64(ip);
            for (unsigned k = 0; k < 5; ++k) {
                if (try_match(static_cast<std::uint32_t>(w >> (8 * k))) ||
                    ip >= mflimit)
                    break;
            }
        } else {
            try_match(read32(ip));
        }
    }

    // Final literals.
    emit_sequence(iend, 0, 0);
    return static_cast<std::size_t>(op - dst.data());
}

/** Dispatch to the offset-check-free loop for window-sized buffers. */
std::size_t
compressDispatch(ConstBytes src, MutableBytes dst, std::uint32_t *table,
                 std::uint32_t bias)
{
    if (src.size() <= maxOffset + 1)
        return compressWith<false>(src, dst, table, bias);
    return compressWith<true>(src, dst, table, bias);
}

} // namespace

std::size_t
Lz4Codec::compressBound(std::size_t n) const noexcept
{
    return boundFor(n);
}

std::size_t
Lz4Codec::compress(ConstBytes src, MutableBytes dst) const
{
    std::vector<std::uint32_t> table(hashSize, 0);
    return compressDispatch(src, dst, table.data(), 1);
}

std::unique_ptr<Codec::BatchState>
Lz4Codec::makeBatchState() const
{
    return std::make_unique<compress_detail::PosTableState>(hashSize);
}

std::size_t
Lz4Codec::compress(ConstBytes src, MutableBytes dst,
                   BatchState *state) const
{
    if (!state)
        return compress(src, dst);
    auto &pos = static_cast<compress_detail::PosTableState &>(*state);
    return compressDispatch(src, dst, pos.data(),
                            pos.claim(src.size()));
}

std::size_t
Lz4Codec::decompress(ConstBytes src, MutableBytes dst) const
{
    const std::uint8_t *ip = src.data();
    const std::uint8_t *const iend = ip + src.size();
    std::uint8_t *op = dst.data();
    std::uint8_t *const oend = op + dst.size();

    if (src.empty())
        return 0;

    while (ip < iend) {
        std::uint8_t token = *ip++;
        // Literal run.
        std::size_t lit_len = token >> 4;
        if (lit_len == 15) {
            std::uint8_t b;
            do {
                if (ip >= iend)
                    return 0;
                b = *ip++;
                lit_len += b;
            } while (b == 255);
        }
        if (static_cast<std::size_t>(iend - ip) < lit_len ||
            static_cast<std::size_t>(oend - op) < lit_len) {
            return 0;
        }
        if (lit_len != 0) // op may be null for an empty dst
            std::memcpy(op, ip, lit_len);
        ip += lit_len;
        op += lit_len;

        if (ip >= iend)
            break; // final literal-only sequence

        // Match.
        if (iend - ip < 2)
            return 0;
        std::size_t offset = ip[0] | (std::size_t{ip[1]} << 8);
        ip += 2;
        if (offset == 0 ||
            offset > static_cast<std::size_t>(op - dst.data())) {
            return 0;
        }
        std::size_t match_len = (token & 0x0f) + minMatch;
        if ((token & 0x0f) == 15) {
            std::uint8_t b;
            do {
                if (ip >= iend)
                    return 0;
                b = *ip++;
                match_len += b;
            } while (b == 255);
        }
        if (static_cast<std::size_t>(oend - op) < match_len)
            return 0;
        // Byte by byte: an overlapping match (offset < length) reads
        // bytes this copy has just written.
        for (const std::uint8_t *ref = op - offset; match_len--;)
            *op++ = *ref++;
    }
    return static_cast<std::size_t>(op - dst.data());
}

} // namespace ariadne
