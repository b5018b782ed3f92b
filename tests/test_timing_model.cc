/** @file Unit tests for the calibrated device timing model. */

#include <gtest/gtest.h>

#include "sim/timing_model.hh"

using namespace ariadne;

TEST(TimingModel, ZeroBytesZeroTime)
{
    TimingModel t;
    EXPECT_EQ(t.compressNs(lz4Cost, 4096, 0), 0u);
    EXPECT_EQ(t.decompressNs(lz4Cost, 4096, 0), 0u);
    EXPECT_EQ(t.compressNs(lz4Cost, 0, 100), 0u);
}

TEST(TimingModel, AnchorAtFourKilobytes)
{
    TimingModel t;
    // At the 4 KB anchor the per-byte cost equals the base constant.
    EXPECT_NEAR(t.compNsPerByte(lzoCost, 4096),
                lzoCost.compNsPerByte4k, 1e-9);
    EXPECT_NEAR(t.decompNsPerByte(lzoCost, 4096),
                lzoCost.decompNsPerByte4k, 1e-9);
}

TEST(TimingModel, PerByteCostMonotonicInChunkSize)
{
    TimingModel t;
    double prev = 0.0;
    for (std::size_t chunk = 128; chunk <= 128 * 1024; chunk *= 2) {
        double cost = t.compNsPerByte(lz4Cost, chunk);
        EXPECT_GT(cost, prev);
        prev = cost;
    }
}

TEST(TimingModel, Fig6CompressionSpans)
{
    // The calibration anchors: 128 B compression of a fixed corpus is
    // 59.2x (LZ4) / 41.8x (LZO) faster than 128 KB (paper Fig. 6).
    TimingModel t;
    std::size_t corpus = std::size_t{576} * 1024 * 1024;

    double lz4_span =
        static_cast<double>(t.compressNs(lz4Cost, 128 * 1024, corpus)) /
        static_cast<double>(t.compressNs(lz4Cost, 128, corpus));
    EXPECT_NEAR(lz4_span, 59.2, 6.0);

    double lzo_span =
        static_cast<double>(t.compressNs(lzoCost, 128 * 1024, corpus)) /
        static_cast<double>(t.compressNs(lzoCost, 128, corpus));
    EXPECT_NEAR(lzo_span, 41.8, 5.0);
}

TEST(TimingModel, MidRangeGrowthIsMild)
{
    // Fig. 11 requires 16 KB chunks to be only mildly more expensive
    // per byte than 4 KB (cache-resident regime).
    TimingModel t;
    double ratio = t.compNsPerByte(lzoCost, 16384) /
                   t.compNsPerByte(lzoCost, 4096);
    EXPECT_GT(ratio, 1.0);
    EXPECT_LT(ratio, 1.6);
}

TEST(TimingModel, LargeChunksExplode)
{
    TimingModel t;
    double r64 = t.compNsPerByte(lz4Cost, 65536) /
                 t.compNsPerByte(lz4Cost, 32768);
    EXPECT_GT(r64, 2.0); // cache-spill regime
}

TEST(TimingModel, SmallChunkDecompressionIsMuchCheaper)
{
    // AdaptiveComp's rationale: hot data at 256 B-1 KB decompresses
    // far faster than the 4 KB baseline.
    TimingModel t;
    double d256 = t.decompNsPerByte(lzoCost, 256);
    double d4k = t.decompNsPerByte(lzoCost, 4096);
    EXPECT_LT(d256, 0.5 * d4k);
}

TEST(TimingModel, CompressionScalesLinearlyInBytes)
{
    TimingModel t;
    Tick one = t.compressNs(lzoCost, 4096, 1 << 20);
    Tick two = t.compressNs(lzoCost, 4096, 2 << 20);
    EXPECT_NEAR(static_cast<double>(two),
                2.0 * static_cast<double>(one),
                static_cast<double>(one) * 0.01);
}

TEST(TimingModel, FlashReadClusters)
{
    TimingParams p;
    p.flashReadPageNs = 80000;
    p.flashReadaheadPages = 4;
    TimingModel t(p);
    EXPECT_EQ(t.flashReadNs(0), 0u);
    EXPECT_EQ(t.flashReadNs(1), 80000u);
    EXPECT_EQ(t.flashReadNs(4), 80000u);
    EXPECT_EQ(t.flashReadNs(5), 160000u);
}

TEST(TimingModel, FlashWriteScalesPerPage)
{
    TimingModel t;
    EXPECT_EQ(t.flashWriteNs(3),
              3 * t.params().flashWritePageNs);
    EXPECT_EQ(t.flashWriteBytesNs(1),
              t.params().flashWritePageNs); // rounds up to a page
    EXPECT_EQ(t.flashWriteBytesNs(pageSize + 1),
              2 * t.params().flashWritePageNs);
}

class ChunkSweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ChunkSweep, CompressionCostsArePositiveAndFinite)
{
    TimingModel t;
    std::size_t chunk = GetParam();
    for (const CodecCost &cost : {lz4Cost, lzoCost}) {
        Tick comp = t.compressNs(cost, chunk, 1 << 20);
        Tick decomp = t.decompressNs(cost, chunk, 1 << 20);
        EXPECT_GT(comp, 0u);
        EXPECT_GT(decomp, 0u);
        EXPECT_LT(comp, Tick{1} << 40);
        // Decompression is never slower than compression here.
        EXPECT_LE(decomp, comp);
    }
}

INSTANTIATE_TEST_SUITE_P(AllChunkSizes, ChunkSweep,
                         ::testing::Values(128, 256, 512, 1024, 2048,
                                           4096, 8192, 16384, 32768,
                                           65536, 131072));
