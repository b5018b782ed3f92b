/**
 * @file
 * Known-answer tests for the LZ codecs: the exact bytes lz4 and lzo
 * emit, pinned as FNV-1a 64 hashes.
 *
 * test_codec_batch holds the stateful calls to the stateless ones,
 * but both run the same match loop, and the goldens see compressed
 * sizes only in aggregate. So a change to the match search that both
 * calls share would pass them. These constants pin every emitted
 * byte. They are recorded once and never re-recorded: a codec speed
 * change must leave the output as it is.
 *
 * Each codec runs everything through one shared Codec::BatchState,
 * as PageCompressor does, so the table holds stale entries from
 * earlier buffers at every call.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <vector>

#include "codec_test_util.hh"
#include "compress/chunked.hh"
#include "compress/registry.hh"
#include "sim/types.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;
using namespace ariadne::testutil;

namespace
{

/** FNV-1a 64 over @p bytes, continuing from @p h. */
std::uint64_t
fnv1a(ConstBytes bytes, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Hash and total length of a sequence of outputs. */
struct Answer
{
    std::uint64_t hash;
    std::uint64_t bytes;

    bool operator==(const Answer &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Answer &a)
{
    return os << "{0x" << std::hex << a.hash << "ull, " << std::dec
              << a.bytes << "}";
}

/** A unit shape the schemes compress: pages per unit, chunk size. */
struct Shape
{
    std::size_t unitPages;
    std::size_t chunkBytes;
};

/**
 * 1-page units at a 1 KB chunk (Ariadne's hot pages) and a 4 KB chunk
 * (ZRAM's pages), and 4-page units at a 16 KB chunk (Ariadne's cold
 * units) and a 4 KB chunk.
 */
constexpr Shape shapes[] = {{1, 1024}, {1, 4096}, {4, 16384}, {4, 4096}};

/** Pages per standard app in each shape's corpus. */
constexpr Pfn pagesPerApp = 16;

/**
 * Frames of the first pagesPerApp pages of all ten standard apps,
 * cut into @p shape's units (consecutive pfns of one app).
 */
Answer
hashUnits(const Codec &codec, Codec::BatchState *state, Shape shape)
{
    PageSynthesizer synth(standardApps());
    std::vector<std::uint8_t> unit(shape.unitPages * pageSize);
    std::vector<std::uint8_t> frame;
    std::vector<std::uint8_t> scratch;
    Answer a{fnv1a({}), 0};
    for (const AppProfile &app : standardApps()) {
        for (Pfn pfn = 0; pfn < pagesPerApp; pfn += shape.unitPages) {
            for (std::size_t i = 0; i < shape.unitPages; ++i) {
                synth.materialize(PageKey{app.uid, pfn + i}, 0,
                                  {unit.data() + i * pageSize, pageSize});
            }
            std::size_t n = ChunkedFrame::compressInto(
                codec, {unit.data(), unit.size()}, shape.chunkBytes,
                state, frame, scratch);
            a.hash = fnv1a({frame.data(), n}, a.hash);
            a.bytes += n;
        }
    }
    return a;
}

/**
 * A 64-byte random segment, zeros, the same segment again starting
 * @p distance bytes after the first, and a 256-byte random tail that
 * keeps the second copy inside lzo's fast group. The coder crosses the
 * zeros with distance-1 matches, which probe one table slot, so the
 * segment's slots survive and its second copy's probes find the first
 * at exactly @p distance. Random filler would not do: lz4 would probe
 * 64 K literals into its 8 K slots and overwrite them.
 */
std::vector<std::uint8_t>
repeatAt(std::size_t distance)
{
    constexpr std::size_t segment = 64;
    std::vector<std::uint8_t> seg = randomBuffer(segment, 0x5e9);
    std::vector<std::uint8_t> tail = randomBuffer(256, 0x7a1);
    std::vector<std::uint8_t> v(distance + segment + tail.size(), 0);
    std::copy(seg.begin(), seg.end(), v.begin());
    std::copy(seg.begin(), seg.end(),
              v.begin() + static_cast<long>(distance));
    std::copy(tail.begin(), tail.end(),
              v.begin() + static_cast<long>(distance + segment));
    return v;
}

/** lzo's window edge, then lz4's. */
constexpr std::size_t distances[] = {4095, 4096, 65535, 65536};

Answer
hashRaw(const Codec &codec, Codec::BatchState *state,
        const std::vector<std::uint8_t> &src)
{
    std::vector<std::uint8_t> dst(codec.compressBound(src.size()));
    std::size_t n = codec.compress({src.data(), src.size()},
                                   {dst.data(), dst.size()}, state);
    return {fnv1a({dst.data(), n}), n};
}

/** Recorded answers for one codec. */
struct Expected
{
    CodecKind kind;
    Answer units[std::size(shapes)];
    Answer edges[std::size(distances)];
};

constexpr Expected expected[] = {
    {CodecKind::Lz4,
     {{0x57b7e7110b5c2ed7ull, 316858},
      {0x3a805e8593e6ac3cull, 285566},
      {0x329090b0ba3b1ca6ull, 232043},
      {0x393dc839c669891cull, 283166}},
     {{0x8cde1e7ce244b93bull, 347},
      {0x5df8ad59246aa93eull, 347},
      {0x2d731c739ed1f407ull, 588},
      {0xe6fe09214d5ef7d4ull, 649}}},
    {CodecKind::Lzo,
     {{0x188f9b43ce439ba6ull, 337998},
      {0xf93b992570c77d0eull, 308504},
      {0x497923e382c39009ull, 288790},
      {0x649281780ad8e24cull, 306104}},
     {{0x347d60b2e2b8cd24ull, 846},
      {0x1cef64d1475e6548ull, 910},
      {0x73ea2c0e566d1e66ull, 8164},
      {0xf8e8914fe912556ull, 8164}}},
};

void
PrintTo(const Expected &e, std::ostream *os)
{
    *os << codecKindName(e.kind);
}

class CodecKnownAnswer : public ::testing::TestWithParam<Expected>
{
};

} // namespace

TEST_P(CodecKnownAnswer, EmittedBytesMatchRecordedHashes)
{
    const Expected &want = GetParam();
    auto codec = makeCodec(want.kind);
    auto state = codec->makeBatchState();

    for (std::size_t i = 0; i < std::size(shapes); ++i) {
        EXPECT_EQ(hashUnits(*codec, state.get(), shapes[i]),
                  want.units[i])
            << shapes[i].unitPages << "-page units, "
            << shapes[i].chunkBytes << "-byte chunks";
    }
    for (std::size_t i = 0; i < std::size(distances); ++i) {
        EXPECT_EQ(hashRaw(*codec, state.get(), repeatAt(distances[i])),
                  want.edges[i])
            << "repeat at distance " << distances[i];
    }
}

TEST_P(CodecKnownAnswer, RepeatIsFoundOnlyInsideTheWindow)
{
    // The crafted buffers do reach the window edge: a repeat at the
    // largest offset compresses, one a byte further does not.
    auto codec = makeCodec(GetParam().kind);
    std::size_t edge = GetParam().kind == CodecKind::Lzo ? 4095 : 65535;
    EXPECT_LT(hashRaw(*codec, nullptr, repeatAt(edge)).bytes,
              hashRaw(*codec, nullptr, repeatAt(edge + 1)).bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecKnownAnswer, ::testing::ValuesIn(expected),
    [](const ::testing::TestParamInfo<Expected> &info) {
        return codecKindName(info.param.kind);
    });
