/** @file Unit tests for the page compressor's one sizing call. */

#include <gtest/gtest.h>

#include "compress/chunked.hh"
#include "compress/registry.hh"
#include "swap/page_compressor.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;

class PageCompressorTest : public ::testing::Test
{
  protected:
    /** Size of the one-page unit @p page. */
    std::size_t
    sizeOne(const PageRef &page, const Codec &codec, std::size_t chunk)
    {
        return compressor.compressedSize({&page, 1}, codec, chunk);
    }

    PageSynthesizer synth{standardApps()};
    PageCompressor compressor{synth};
    std::unique_ptr<Codec> lzo = makeCodec(CodecKind::Lzo);
    std::unique_ptr<Codec> lz4 = makeCodec(CodecKind::Lz4);
};

TEST_F(PageCompressorTest, SizesArePlausible)
{
    std::size_t csize = sizeOne(PageRef{{0, 1}, 0}, *lzo, pageSize);
    EXPECT_GT(csize, 64u);
    EXPECT_LT(csize, pageSize + 256);
}

TEST_F(PageCompressorTest, SmallChunksGiveWorseRatio)
{
    // Average over pages: larger chunks never compress worse.
    std::size_t small_total = 0, large_total = 0;
    for (Pfn pfn = 0; pfn < 32; ++pfn) {
        small_total += sizeOne(PageRef{{1, pfn}, 0}, *lz4, 256);
        large_total += sizeOne(PageRef{{1, pfn}, 0}, *lz4, pageSize);
    }
    EXPECT_LT(large_total, small_total);
}

TEST_F(PageCompressorTest, MultiPageUnitsCompressBetterPerByte)
{
    // A 4-page unit at 16 KB chunks vs the same pages individually.
    std::vector<PageRef> refs;
    for (Pfn pfn = 100; pfn < 104; ++pfn)
        refs.push_back(PageRef{{0, pfn}, 0});
    std::size_t unit = compressor.compressedSize(refs, *lz4, 16384);
    std::size_t individual = 0;
    for (const auto &ref : refs)
        individual += sizeOne(ref, *lz4, pageSize);
    EXPECT_LT(unit, individual);
}

TEST_F(PageCompressorTest, EmptyUnitIsZero)
{
    EXPECT_EQ(compressor.compressedSize({}, *lzo, 16384), 0u);
    EXPECT_EQ(compressor.bytesCompressed(), 0u);
}

TEST_F(PageCompressorTest, TracksCompressedVolume)
{
    std::vector<PageRef> pages;
    for (Pfn pfn = 5; pfn < 9; ++pfn)
        pages.push_back(PageRef{{0, pfn}, 0});
    sizeOne(pages[0], *lzo, pageSize);
    EXPECT_EQ(compressor.bytesCompressed(), pageSize);
    compressor.compressedSize(pages, *lz4, 16384);
    EXPECT_EQ(compressor.bytesCompressed(), 5 * pageSize);
}

TEST_F(PageCompressorTest, RepeatCallReturnsSameSize)
{
    // Nothing is cached: a repeated call compresses again, returns the
    // same size, and counts the unit's bytes again.
    std::vector<PageRef> pages;
    for (Pfn pfn = 5; pfn < 9; ++pfn)
        pages.push_back(PageRef{{0, pfn}, 0});
    std::uint64_t expected = 0;
    for (std::size_t n : {std::size_t{1}, std::size_t{4}}) {
        std::span<const PageRef> unit(pages.data(), n);
        std::size_t first = compressor.compressedSize(unit, *lzo, pageSize);
        expected += n * pageSize;
        EXPECT_EQ(compressor.bytesCompressed(), expected);
        EXPECT_EQ(compressor.compressedSize(unit, *lzo, pageSize), first);
        expected += n * pageSize;
        EXPECT_EQ(compressor.bytesCompressed(), expected);
    }
}

namespace
{

class PageCompressorSizing : public ::testing::TestWithParam<CodecKind>
{
};

} // namespace

TEST_P(PageCompressorSizing, EqualsFrameOfMaterializedUnit)
{
    // compressedSize() must be exactly the stateless frame size of the
    // unit's pages laid back to back, whatever the codec's reused batch
    // state has seen before.
    PageSynthesizer synth(standardApps());
    PageCompressor compressor(synth);
    auto codec = makeCodec(GetParam());

    std::vector<PageRef> pages;
    for (std::uint32_t i = 0; i < 4; ++i)
        pages.push_back(PageRef{PageKey{i % 2, 10 + i * 7}, i % 2});

    for (std::size_t n : {std::size_t{1}, std::size_t{4}}) {
        std::span<const PageRef> unit(pages.data(), n);
        std::vector<std::uint8_t> bytes(n * pageSize);
        for (std::size_t i = 0; i < n; ++i)
            synth.materialize(unit[i].key, unit[i].version,
                              {bytes.data() + i * pageSize, pageSize});
        for (std::size_t chunk : {std::size_t{256}, std::size_t{1024},
                                  std::size_t{4096}, std::size_t{16384}}) {
            EXPECT_EQ(compressor.compressedSize(unit, *codec, chunk),
                      ChunkedFrame::compress(
                          *codec, {bytes.data(), bytes.size()}, chunk)
                          .size())
                << n << " page(s), chunk " << chunk;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, PageCompressorSizing, ::testing::ValuesIn(allCodecKinds()),
    [](const ::testing::TestParamInfo<CodecKind> &info) {
        return codecKindName(info.param);
    });
