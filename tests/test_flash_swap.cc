/** @file Unit tests for the uncompressed flash SWAP scheme. */

#include <gtest/gtest.h>

#include "scheme_test_util.hh"
#include "swap/flash_swap.hh"

using namespace ariadne;
using namespace ariadne::testutil;

namespace
{

FlashSwapConfig
smallConfig()
{
    FlashSwapConfig cfg;
    cfg.flashBytes = 1024 * pageSize;
    return cfg;
}

} // namespace

TEST(FlashSwap, ReclaimWritesRawPages)
{
    SchemeHarness h(256);
    FlashSwapScheme swap(h.context(), smallConfig());
    auto pages = h.admitPages(swap, 1, 16);
    std::size_t freed = swap.reclaim(8, false);
    EXPECT_EQ(freed, 8u);
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(pages[i]->location, PageLocation::Flash);
    // Raw pages: one full page per victim.
    EXPECT_EQ(swap.flash()->hostWriteBytes(), 8 * pageSize);
    // No compression happened.
    EXPECT_EQ(swap.totalStats().compOps, 0u);
}

TEST(FlashSwap, SwapInPaysFlashLatency)
{
    SchemeHarness h(256);
    FlashSwapScheme swap(h.context(), smallConfig());
    auto pages = h.admitPages(swap, 1, 8);
    swap.reclaim(8, false);
    SwapInResult res = swap.swapIn(*pages[0]);
    EXPECT_TRUE(res.fromFlash);
    EXPECT_EQ(pages[0]->location, PageLocation::Resident);
    // Effective flash read latency dwarfs fault bookkeeping.
    EXPECT_GT(res.latencyNs, h.timing.params().flashReadPageNs /
                                 h.timing.params().flashReadaheadPages);
}

TEST(FlashSwap, SwapInCostsMoreThanZramWould)
{
    // The Fig. 2 ordering: flash swap-ins are slower than in-memory
    // decompression. Compare against the modeled 4 KB decompression.
    SchemeHarness h(256);
    FlashSwapScheme swap(h.context(), smallConfig());
    auto pages = h.admitPages(swap, 1, 4);
    swap.reclaim(4, false);
    SwapInResult res = swap.swapIn(*pages[0]);
    Tick zram_like =
        h.timing.decompressNs(lzoCost, pageSize, pageSize) +
        h.timing.params().majorFaultBaseNs;
    EXPECT_GT(res.latencyNs, zram_like);
}

TEST(FlashSwap, ExhaustedSwapSpaceLosesPages)
{
    SchemeHarness h(4096);
    FlashSwapConfig cfg;
    cfg.flashBytes = 8 * pageSize;
    FlashSwapScheme swap(h.context(), cfg);
    h.admitPages(swap, 1, 64);
    swap.reclaim(64, false);
    EXPECT_EQ(swap.lostPages(), 64u - 8u);
}

TEST(FlashSwap, CpuYieldsDuringIo)
{
    // SWAP's kswapd CPU is submission only (Fig. 3's low SWAP bar).
    SchemeHarness h(256);
    FlashSwapScheme swap(h.context(), smallConfig());
    h.admitPages(swap, 1, 32);
    swap.reclaim(32, false);
    EXPECT_EQ(h.cpu.total(CpuRole::Compression), 0u);
    EXPECT_EQ(h.cpu.total(CpuRole::IoSubmit),
              32 * h.timing.params().flashSubmitCpuNs);
}
