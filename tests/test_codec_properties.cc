/**
 * @file
 * Property-based tests applied uniformly to every codec: roundtrip
 * identity, bound correctness, determinism, and robustness against
 * random corruption (decoders must never overrun, crash, or return a
 * full-size success for mangled input they cannot decode).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "codec_test_util.hh"
#include "compress/registry.hh"

using namespace ariadne;
using namespace ariadne::testutil;

class CodecProperty : public ::testing::TestWithParam<CodecKind>
{
  protected:
    std::unique_ptr<Codec> codec = makeCodec(GetParam());
};

TEST_P(CodecProperty, RoundtripRandomSizes)
{
    Rng rng(0xABCDEF ^ static_cast<std::uint64_t>(GetParam()));
    for (int trial = 0; trial < 50; ++trial) {
        std::size_t n = rng.below(10000);
        auto src = mixedBuffer(n, rng.next64());
        EXPECT_EQ(roundtrip(*codec, src), src) << "n=" << n;
    }
}

TEST_P(CodecProperty, CompressedSizeWithinBound)
{
    Rng rng(0x1234 ^ static_cast<std::uint64_t>(GetParam()));
    for (int trial = 0; trial < 30; ++trial) {
        std::size_t n = 1 + rng.below(8192);
        auto src = randomBuffer(n, rng.next64());
        std::vector<std::uint8_t> comp(codec->compressBound(n));
        std::size_t csize = codec->compress({src.data(), n},
                                            {comp.data(), comp.size()});
        EXPECT_GT(csize, 0u);
        EXPECT_LE(csize, codec->compressBound(n));
    }
}

TEST_P(CodecProperty, CompressionIsDeterministic)
{
    auto src = mixedBuffer(4096, 42);
    std::vector<std::uint8_t> a(codec->compressBound(src.size()));
    std::vector<std::uint8_t> b(codec->compressBound(src.size()));
    std::size_t ca =
        codec->compress({src.data(), src.size()}, {a.data(), a.size()});
    std::size_t cb =
        codec->compress({src.data(), src.size()}, {b.data(), b.size()});
    ASSERT_EQ(ca, cb);
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), ca));
}

TEST_P(CodecProperty, FuzzedInputNeverCrashes)
{
    // Random garbage fed straight to the decoder: any return value is
    // acceptable as long as nothing crashes and bounds hold (the
    // sanitizer-visible contract).
    Rng rng(0xFEED ^ static_cast<std::uint64_t>(GetParam()));
    for (int trial = 0; trial < 200; ++trial) {
        std::size_t n = 1 + rng.below(512);
        auto garbage = randomBuffer(n, rng.next64());
        std::vector<std::uint8_t> out(pageSize);
        std::size_t got = codec->decompress({garbage.data(), n},
                                            {out.data(), out.size()});
        EXPECT_LE(got, out.size());
    }
}

TEST_P(CodecProperty, BitflippedFramesNeverOverrun)
{
    Rng rng(0xF1A9 ^ static_cast<std::uint64_t>(GetParam()));
    auto src = mixedBuffer(2048, 77);
    std::vector<std::uint8_t> comp(codec->compressBound(src.size()));
    std::size_t csize = codec->compress({src.data(), src.size()},
                                        {comp.data(), comp.size()});
    for (int trial = 0; trial < 200; ++trial) {
        auto mutated = comp;
        std::size_t pos = rng.below(csize);
        mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        std::vector<std::uint8_t> out(src.size());
        std::size_t got = codec->decompress({mutated.data(), csize},
                                            {out.data(), out.size()});
        EXPECT_LE(got, out.size());
    }
}

TEST_P(CodecProperty, AllZerosAndAllOnes)
{
    for (std::uint8_t fill : {std::uint8_t{0}, std::uint8_t{0xFF}}) {
        std::vector<std::uint8_t> src(4096, fill);
        EXPECT_EQ(roundtrip(*codec, src), src);
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecProperty,
                         ::testing::Values(CodecKind::Lz4,
                                           CodecKind::Lzo));

TEST(Registry, CreatesByNameAndKind)
{
    EXPECT_EQ(makeCodec(CodecKind::Lz4)->kind(), CodecKind::Lz4);
    EXPECT_EQ(makeCodec(CodecKind::Lzo)->kind(), CodecKind::Lzo);
    EXPECT_EQ(makeCodec(CodecKind::Lz4)->name(), "lz4");
    EXPECT_EQ(makeCodec(CodecKind::Lzo)->name(), "lzo");
    EXPECT_EQ(allCodecKinds().size(), 2u);
}

TEST(Registry, KindNamesRoundtrip)
{
    for (CodecKind kind : allCodecKinds())
        EXPECT_EQ(makeCodec(kind)->name(), codecKindName(kind));
}
