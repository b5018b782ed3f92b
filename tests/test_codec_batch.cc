/**
 * @file
 * Property tests for the codec batch state: compressing with one
 * reused Codec::BatchState must produce byte-identical output (and
 * identical sizes) to the stateless calls, for every codec kind, in
 * any batch size and call order, directly, through the chunked
 * framing layer and through PageCompressor. This is the contract that
 * lets PageCompressor keep one state per codec for a whole session
 * without perturbing exact-mode reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "codec_test_util.hh"
#include "compress/chunked.hh"
#include "compress/registry.hh"
#include "sim/types.hh"
#include "swap/page_compressor.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;
using namespace ariadne::testutil;

namespace
{

/** A batch of page-sized buffers with varied content classes. */
std::vector<std::vector<std::uint8_t>>
makePages(std::size_t n)
{
    std::vector<std::vector<std::uint8_t>> pages;
    pages.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        switch (i % 4) {
          case 0:
            pages.push_back(mixedBuffer(pageSize, 0x1000 + i));
            break;
          case 1:
            pages.push_back(repetitiveBuffer(pageSize));
            break;
          case 2:
            pages.push_back(randomBuffer(pageSize, 0x2000 + i));
            break;
          default:
            pages.emplace_back(pageSize, 0); // all zeros
            break;
        }
    }
    return pages;
}

class CodecBatch : public ::testing::TestWithParam<CodecKind>
{
};

} // namespace

TEST_P(CodecBatch, CompressBatchBytesMatchOneAtATime)
{
    // A batch compressed in order with one BatchState, each page into
    // its own output buffer, against the stateless one-page calls.
    auto codec = makeCodec(GetParam());
    const std::size_t bound = codec->compressBound(pageSize);
    for (std::size_t n : {std::size_t{1}, std::size_t{7},
                          std::size_t{16}}) {
        auto pages = makePages(n);
        auto state = codec->makeBatchState();
        std::vector<std::vector<std::uint8_t>> outs(
            n, std::vector<std::uint8_t>(bound));
        std::vector<std::size_t> sizes;
        for (std::size_t i = 0; i < n; ++i) {
            sizes.push_back(codec->compress(
                {pages[i].data(), pages[i].size()},
                {outs[i].data(), outs[i].size()}, state.get()));
        }

        for (std::size_t i = 0; i < n; ++i) {
            std::vector<std::uint8_t> solo(bound);
            std::size_t solo_size = codec->compress(
                {pages[i].data(), pages[i].size()},
                {solo.data(), solo.size()});
            ASSERT_EQ(sizes[i], solo_size)
                << n << "-page batch, page " << i;
            EXPECT_TRUE(std::equal(
                outs[i].begin(),
                outs[i].begin() + static_cast<long>(sizes[i]),
                solo.begin()))
                << n << "-page batch, page " << i;
        }
    }
}

TEST_P(CodecBatch, SizeBatchMatchesStatelessSizes)
{
    // Sizing a batch the way PageCompressor does: one BatchState and
    // one destination buffer overwritten by every page, keeping only
    // the sizes.
    auto codec = makeCodec(GetParam());
    std::vector<std::uint8_t> dst(codec->compressBound(pageSize));
    for (std::size_t n : {std::size_t{1}, std::size_t{9}}) {
        auto pages = makePages(n);
        auto state = codec->makeBatchState();
        std::vector<std::size_t> sizes;
        for (const auto &page : pages) {
            sizes.push_back(codec->compress({page.data(), page.size()},
                                            {dst.data(), dst.size()},
                                            state.get()));
        }
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<std::uint8_t> solo(codec->compressBound(pageSize));
            EXPECT_EQ(sizes[i],
                      codec->compress({pages[i].data(), pages[i].size()},
                                      {solo.data(), solo.size()}))
                << n << "-page batch, page " << i;
        }
    }
}

TEST_P(CodecBatch, SharedStateIsOrderInsensitive)
{
    // One BatchState reused across the whole batch, pages compressed
    // twice in different orders: every output must equal the
    // stateless result both times.
    auto codec = makeCodec(GetParam());
    auto pages = makePages(6);
    auto state = codec->makeBatchState();
    std::vector<std::uint8_t> dst(codec->compressBound(pageSize));
    std::vector<std::uint8_t> solo(codec->compressBound(pageSize));

    auto check = [&](std::size_t i) {
        ConstBytes src{pages[i].data(), pages[i].size()};
        std::size_t got =
            codec->compress(src, {dst.data(), dst.size()}, state.get());
        std::size_t want =
            codec->compress(src, {solo.data(), solo.size()});
        ASSERT_EQ(got, want) << "page " << i;
        EXPECT_TRUE(std::equal(dst.begin(),
                               dst.begin() + static_cast<long>(got),
                               solo.begin()))
            << "page " << i;
    };
    for (std::size_t i = 0; i < pages.size(); ++i)
        check(i);
    for (std::size_t i = pages.size(); i-- > 0;)
        check(i);
}

TEST_P(CodecBatch, ChunkedFrameStatefulMatchesStateless)
{
    auto codec = makeCodec(GetParam());
    auto state = codec->makeBatchState();
    std::vector<std::uint8_t> out;
    std::vector<std::uint8_t> scratch;
    for (std::size_t chunk : {std::size_t{1024}, std::size_t{4096}}) {
        for (const auto &page : makePages(5)) {
            ConstBytes src{page.data(), page.size()};
            auto plain = ChunkedFrame::compress(*codec, src, chunk);
            std::size_t n = ChunkedFrame::compressInto(
                *codec, src, chunk, state.get(), out, scratch);
            ASSERT_EQ(n, plain.size());
            EXPECT_EQ(out, plain);
        }
    }
}

TEST_P(CodecBatch, CompressedSizeEachMatchesOne)
{
    // Each page sized as a one-page unit through one PageCompressor,
    // whose per-codec state has seen every earlier page, against a
    // fresh compressor per page.
    PageSynthesizer synth(standardApps());
    auto codec = makeCodec(GetParam());

    std::vector<PageRef> pages;
    for (std::uint32_t i = 0; i < 24; ++i)
        pages.push_back(PageRef{PageKey{1000 + (i % 3), i * 17}, i % 2});

    PageCompressor warm(synth);
    std::vector<std::size_t> sizes;
    for (const auto &page : pages)
        sizes.push_back(warm.compressedSize({&page, 1}, *codec, 1024));

    for (std::size_t i = 0; i < pages.size(); ++i) {
        PageCompressor one(synth);
        EXPECT_EQ(sizes[i], one.compressedSize({&pages[i], 1}, *codec, 1024))
            << "page " << i;
    }

    // Nothing is cached: a re-run compresses every page again and
    // returns the same sizes.
    for (std::size_t i = 0; i < pages.size(); ++i) {
        EXPECT_EQ(warm.compressedSize({&pages[i], 1}, *codec, 1024),
                  sizes[i])
            << "page " << i;
    }
    EXPECT_EQ(warm.bytesCompressed(), 2 * pages.size() * pageSize);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecBatch, ::testing::ValuesIn(allCodecKinds()),
    [](const ::testing::TestParamInfo<CodecKind> &info) {
        return codecKindName(info.param);
    });
