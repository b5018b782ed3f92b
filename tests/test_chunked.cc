/** @file Unit tests for the chunked compression framing. */

#include <gtest/gtest.h>

#include "codec_test_util.hh"

#include "compress/chunked.hh"
#include "compress/registry.hh"

using namespace ariadne;
using namespace ariadne::testutil;

namespace
{

std::vector<std::uint8_t>
frameRoundtrip(const Codec &codec, const std::vector<std::uint8_t> &src,
               std::size_t chunk, std::size_t *frame_size = nullptr)
{
    auto frame =
        ChunkedFrame::compress(codec, {src.data(), src.size()}, chunk);
    if (frame_size)
        *frame_size = frame.size();
    std::vector<std::uint8_t> out(src.size());
    std::size_t got = ChunkedFrame::decompress(
        codec, {frame.data(), frame.size()}, {out.data(), out.size()});
    out.resize(got);
    return out;
}

} // namespace

TEST(Chunked, EmptyInputMakesValidEmptyFrame)
{
    auto codec = makeCodec(CodecKind::Lz4);
    std::vector<std::uint8_t> src;
    auto frame = ChunkedFrame::compress(*codec, {src.data(), 0}, 4096);
    EXPECT_TRUE(ChunkedFrame::valid({frame.data(), frame.size()}));
    EXPECT_EQ(ChunkedFrame::originalSize({frame.data(), frame.size()}),
              0u);
    EXPECT_EQ(ChunkedFrame::chunkCount({frame.data(), frame.size()}),
              0u);
}

TEST(Chunked, RoundtripExactMultiple)
{
    auto codec = makeCodec(CodecKind::Lzo);
    auto src = mixedBuffer(8192, 1);
    EXPECT_EQ(frameRoundtrip(*codec, src, 2048), src);
}

TEST(Chunked, RoundtripWithTail)
{
    auto codec = makeCodec(CodecKind::Lz4);
    auto src = mixedBuffer(5000, 2); // not a multiple of 2048
    EXPECT_EQ(frameRoundtrip(*codec, src, 2048), src);
}

TEST(Chunked, HeaderFieldsCorrect)
{
    auto codec = makeCodec(CodecKind::Lz4);
    auto src = mixedBuffer(10000, 3);
    auto frame =
        ChunkedFrame::compress(*codec, {src.data(), src.size()}, 4096);
    ConstBytes f{frame.data(), frame.size()};
    EXPECT_TRUE(ChunkedFrame::valid(f));
    EXPECT_EQ(ChunkedFrame::originalSize(f), 10000u);
    EXPECT_EQ(ChunkedFrame::chunkBytes(f), 4096u);
    EXPECT_EQ(ChunkedFrame::chunkCount(f), 3u); // ceil(10000/4096)
}

TEST(Chunked, IncompressibleChunksStoredRaw)
{
    auto codec = makeCodec(CodecKind::Lz4);
    auto src = randomBuffer(16384, 4);
    std::size_t frame_size = 0;
    EXPECT_EQ(frameRoundtrip(*codec, src, 4096, &frame_size), src);
    // Raw storage bounds expansion to header + table.
    EXPECT_LE(frame_size,
              src.size() + ChunkedFrame::headerBytes + 4 * 4 + 4);
}

TEST(Chunked, RejectsBadMagic)
{
    auto codec = makeCodec(CodecKind::Lz4);
    auto src = mixedBuffer(4096, 7);
    auto frame =
        ChunkedFrame::compress(*codec, {src.data(), src.size()}, 4096);
    frame[0] ^= 0xFF;
    std::vector<std::uint8_t> out(4096);
    EXPECT_EQ(ChunkedFrame::decompress(*codec,
                                       {frame.data(), frame.size()},
                                       {out.data(), out.size()}),
              0u);
    EXPECT_FALSE(ChunkedFrame::valid({frame.data(), frame.size()}));
}

TEST(Chunked, RejectsTruncatedFrames)
{
    auto codec = makeCodec(CodecKind::Lzo);
    auto src = mixedBuffer(8192, 8);
    auto frame =
        ChunkedFrame::compress(*codec, {src.data(), src.size()}, 1024);
    std::vector<std::uint8_t> out(src.size());
    for (std::size_t keep :
         {std::size_t{4}, std::size_t{16}, frame.size() / 2,
          frame.size() - 3}) {
        EXPECT_EQ(ChunkedFrame::decompress(*codec, {frame.data(), keep},
                                           {out.data(), out.size()}),
                  0u)
            << "keep=" << keep;
    }
}

TEST(Chunked, RejectsShortOutput)
{
    auto codec = makeCodec(CodecKind::Lz4);
    auto src = mixedBuffer(8192, 9);
    auto frame =
        ChunkedFrame::compress(*codec, {src.data(), src.size()}, 2048);
    std::vector<std::uint8_t> out(100);
    EXPECT_EQ(ChunkedFrame::decompress(*codec,
                                       {frame.data(), frame.size()},
                                       {out.data(), out.size()}),
              0u);
}

class ChunkedSweep
    : public ::testing::TestWithParam<std::tuple<CodecKind, std::size_t>>
{
};

TEST_P(ChunkedSweep, RoundtripAcrossCodecsAndChunkSizes)
{
    auto [kind, chunk] = GetParam();
    auto codec = makeCodec(kind);
    auto src = mixedBuffer(3 * chunk + chunk / 3 + 1,
                           static_cast<std::uint64_t>(chunk));
    EXPECT_EQ(frameRoundtrip(*codec, src, chunk), src);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ChunkedSweep,
    ::testing::Combine(::testing::Values(CodecKind::Lz4, CodecKind::Lzo,
                                         CodecKind::Bdi,
                                         CodecKind::Null),
                       ::testing::Values(128, 256, 512, 1024, 2048,
                                         4096, 16384, 65536)));
