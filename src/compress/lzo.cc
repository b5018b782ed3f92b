#include "compress/lzo.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "compress/batch_table.hh"

namespace ariadne
{

namespace
{

constexpr std::size_t minMatch = 3;
constexpr std::size_t maxMatch = 18;
constexpr std::size_t maxOffset = 4095;
constexpr unsigned hashBits = 12;
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

/** Index of the first nonzero byte of a little-endian XOR word. */
std::size_t
firstDiffByte(std::uint64_t diff) noexcept
{
    return static_cast<std::size_t>(__builtin_ctzll(diff)) >> 3;
}

/** The three match bytes as a little-endian word. */
std::uint32_t
load24(const std::uint8_t *p) noexcept
{
    return p[0] | (std::uint32_t{p[1]} << 8) |
                  (std::uint32_t{p[2]} << 16);
}

std::uint32_t
hashOf24(std::uint32_t v) noexcept
{
    return (v * 2654435761u) >> (32 - hashBits);
}

std::size_t
boundFor(std::size_t n) noexcept
{
    // All-literal worst case: one flag byte per 8 literals.
    return n + n / 8 + 2;
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
    std::uint8_t *op = dst.data();

    // The largest offset an entry may have at cur_pos: stale entries
    // and those beyond the window lie above it (entryOffset).
    auto limit = [](std::uint32_t cur_pos) {
        return checkOffset
                   ? std::min(cur_pos, static_cast<std::uint32_t>(maxOffset))
                   : cur_pos;
    };

    // A group far enough from the end can never exhaust the input
    // (8 items consume at most 8 * maxMatch bytes) and every 8-byte
    // load stays in bounds, so its items skip all per-item bounds
    // checks. The checked loop below handles the remainder; both
    // produce identical items.
    constexpr std::size_t fastGroupBytes = 8 * maxMatch + 4;

    while (ip < iend) {
        // One flag byte per group of 8 items, accumulated in a
        // register and stored once when the group closes.
        std::uint8_t *flags = op++;
        std::uint8_t flag_byte = 0;
        if (static_cast<std::size_t>(iend - ip) >= fastGroupBytes) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                std::uint32_t v = read32(ip);
                std::uint32_t h = hashOf24(v & 0xffffffu);
                auto cur_pos =
                    static_cast<std::uint32_t>(ip - src.data());
                std::uint32_t offset =
                    compress_detail::entryOffset(table[h], cur_pos, bias);
                table[h] = cur_pos + bias;
                // One branch per item. A far entry compares ip with
                // itself, so its flag alone makes the miss word
                // nonzero. The flag must be OR-ed into the compare,
                // not `&&`-ed (or `&`-ed as a bool) with it: GCC
                // then keeps a branch on the flag, and once earlier
                // buffers have half written the table that branch is
                // a coin flip.
                std::uint32_t far = offset > limit(cur_pos);
                const std::uint8_t *ref = ip - (offset & (far - 1u));
                std::uint32_t miss =
                    ((read32(ref) ^ v) & 0xffffffu) | far;
                if (miss == 0) {
                    // Size the match with two overlapping 8-byte
                    // compares, bytes [3, 11) and [10, 18): in bounds,
                    // since the group keeps maxMatch + word slack
                    // ahead.
                    constexpr std::size_t tail = maxMatch - 8;
                    static_assert(tail <= minMatch + 8);
                    std::size_t len = maxMatch;
                    if (std::uint64_t d1 = read64(ip + minMatch) ^
                                           read64(ref + minMatch))
                        len = minMatch + firstDiffByte(d1);
                    else if (std::uint64_t d2 =
                                 read64(ip + tail) ^ read64(ref + tail))
                        len = tail + firstDiffByte(d2);
                    flag_byte |=
                        static_cast<std::uint8_t>(1u << bit);
                    *op++ = static_cast<std::uint8_t>(
                        ((len - minMatch) << 4) |
                        ((offset >> 8) & 0x0f));
                    *op++ = static_cast<std::uint8_t>(offset & 0xff);
                    ip += len;
                } else {
                    *op++ = *ip++;
                }
            }
            *flags = flag_byte;
            continue;
        }
        for (unsigned bit = 0; bit < 8 && ip < iend; ++bit) {
            bool matched = false;
            if (ip + minMatch <= iend) {
                // Off the last three bytes, a single 4-byte load
                // (masked to 24 bits) replaces the byte-at-a-time
                // gather for both the hash input and the candidate
                // compare; the values — and therefore the output —
                // are identical.
                bool word_safe =
                    static_cast<std::size_t>(iend - ip) >= 4;
                std::uint32_t v24 =
                    word_safe ? (read32(ip) & 0xffffffu) : load24(ip);
                std::uint32_t h = hashOf24(v24);
                auto cur_pos =
                    static_cast<std::uint32_t>(ip - src.data());
                std::uint32_t offset =
                    compress_detail::entryOffset(table[h], cur_pos, bias);
                table[h] = cur_pos + bias;
                if (offset <= limit(cur_pos) &&
                    (word_safe
                         ? (read32(ip - offset) & 0xffffffu) == v24
                         : std::memcmp(ip - offset, ip, minMatch) == 0)) {
                    const std::uint8_t *ref = ip - offset;
                    std::size_t len = minMatch;
                    std::size_t max_len = std::min(
                        maxMatch,
                        static_cast<std::size_t>(iend - ip));
                    while (len < max_len && ref[len] == ip[len])
                        ++len;
                    flag_byte |=
                        static_cast<std::uint8_t>(1u << bit);
                    *op++ = static_cast<std::uint8_t>(
                        ((len - minMatch) << 4) |
                        ((offset >> 8) & 0x0f));
                    *op++ = static_cast<std::uint8_t>(offset & 0xff);
                    ip += len;
                    matched = true;
                }
            }
            if (!matched)
                *op++ = *ip++;
        }
        *flags = flag_byte;
    }
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
LzoCodec::compressBound(std::size_t n) const noexcept
{
    return boundFor(n);
}

std::size_t
LzoCodec::compress(ConstBytes src, MutableBytes dst) const
{
    std::vector<std::uint32_t> table(hashSize, 0);
    return compressDispatch(src, dst, table.data(), 1);
}

std::unique_ptr<Codec::BatchState>
LzoCodec::makeBatchState() const
{
    return std::make_unique<compress_detail::PosTableState>(hashSize);
}

std::size_t
LzoCodec::compress(ConstBytes src, MutableBytes dst,
                   BatchState *state) const
{
    if (!state)
        return compress(src, dst);
    auto &pos = static_cast<compress_detail::PosTableState &>(*state);
    return compressDispatch(src, dst, pos.data(),
                            pos.claim(src.size()));
}

std::size_t
LzoCodec::decompress(ConstBytes src, MutableBytes dst) const
{
    const std::uint8_t *ip = src.data();
    const std::uint8_t *const iend = ip + src.size();
    std::uint8_t *op = dst.data();
    std::uint8_t *const oend = op + dst.size();

    while (ip < iend) {
        std::uint8_t flags = *ip++;
        for (unsigned bit = 0; bit < 8 && ip < iend; ++bit) {
            if (flags & (1u << bit)) {
                if (iend - ip < 2)
                    return 0;
                std::size_t len = (ip[0] >> 4) + minMatch;
                std::size_t offset =
                    (static_cast<std::size_t>(ip[0] & 0x0f) << 8) |
                    ip[1];
                ip += 2;
                if (offset == 0 ||
                    offset > static_cast<std::size_t>(op - dst.data())) {
                    return 0;
                }
                if (static_cast<std::size_t>(oend - op) < len)
                    return 0;
                // Byte by byte: an overlapping match (offset < len)
                // reads bytes this copy has just written.
                for (const std::uint8_t *ref = op - offset; len--;)
                    *op++ = *ref++;
            } else {
                if (op >= oend)
                    return 0;
                *op++ = *ip++;
            }
        }
    }
    return static_cast<std::size_t>(op - dst.data());
}

} // namespace ariadne
