/** @file Unit tests for the baseline ZRAM scheme. */

#include <gtest/gtest.h>

#include "scheme_test_util.hh"
#include "swap/zram.hh"

using namespace ariadne;
using namespace ariadne::testutil;

namespace
{

ZramConfig
smallConfig(bool writeback = false)
{
    ZramConfig cfg;
    cfg.zpoolBytes = 512 * pageSize;
    cfg.flashBytes = 1024 * pageSize;
    cfg.writeback = writeback;
    cfg.proactiveFraction = 0.0; // unit tests drive reclaim directly
    return cfg;
}

/** What a scheme reports of its zpool traffic, in order. */
struct ZpoolLog : SystemObserver
{
    void onZpoolPut(const PageMeta &page) override
    {
        truths.push_back(page.truth);
    }
    void onZpoolSwapIn(Sector sector) override { sectors.push_back(sector); }

    std::vector<Hotness> truths;
    std::vector<Sector> sectors;
};

} // namespace

TEST(Zram, ReclaimCompressesLruVictims)
{
    SchemeHarness h(256);
    ZramScheme zram(h.context(), smallConfig());
    auto pages = h.admitPages(zram, 1, 64);
    std::size_t freed = zram.reclaim(16, false);
    EXPECT_EQ(freed, 16u);
    EXPECT_EQ(h.dram.usedPages(), 48u);
    // LRU: the earliest-admitted pages were compressed first.
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(pages[i]->location, PageLocation::Zpool) << i;
    for (std::size_t i = 16; i < 64; ++i)
        EXPECT_EQ(pages[i]->location, PageLocation::Resident) << i;
    EXPECT_EQ(zram.totalStats().compOps, 16u);
    EXPECT_GT(zram.zpool()->storedBytes(), 0u);
}

TEST(Zram, AppGroupingEvictsOldestAppFirst)
{
    SchemeHarness h(512);
    ZramScheme zram(h.context(), smallConfig());
    h.admitPages(zram, 1, 32, Hotness::Cold, 0);
    h.clock.advance(1000);
    auto app2 = h.admitPages(zram, 2, 32, Hotness::Cold, 0);
    zram.reclaim(32, false);
    // All 32 victims came from app 1 (least recently used app).
    for (PageMeta *p : app2)
        EXPECT_EQ(p->location, PageLocation::Resident);
    EXPECT_EQ(zram.appStats(1).compOps, 32u);
    EXPECT_EQ(zram.appStats(2).compOps, 0u);
}

TEST(Zram, SwapInRestoresResidency)
{
    SchemeHarness h(256);
    ZramScheme zram(h.context(), smallConfig());
    auto pages = h.admitPages(zram, 1, 8);
    zram.reclaim(8, false);
    ASSERT_EQ(pages[0]->location, PageLocation::Zpool);

    Tick before = h.clock.now();
    SwapInResult res = zram.swapIn(*pages[0]);
    EXPECT_EQ(pages[0]->location, PageLocation::Resident);
    EXPECT_GT(res.latencyNs, 0u);
    EXPECT_EQ(h.clock.now() - before, res.latencyNs);
    EXPECT_FALSE(res.fromFlash);
    EXPECT_EQ(zram.totalStats().decompOps, 1u);
}

TEST(Zram, SwapInTriggersDirectReclaimWhenFull)
{
    SchemeHarness h(64);
    ZramScheme zram(h.context(), smallConfig());
    auto pages = h.admitPages(zram, 1, 64); // memory exactly full
    zram.reclaim(1, false);
    ASSERT_EQ(h.dram.freePages(), 1u);
    h.dram.allocate(1); // simulate another consumer taking the page
    SwapInResult res = zram.swapIn(*pages[0]);
    EXPECT_EQ(pages[0]->location, PageLocation::Resident);
    EXPECT_GE(zram.directReclaims(), 1u);
    EXPECT_GT(res.latencyNs, 0u);
}

TEST(Zram, ZpoolOverflowDropsOldestWithoutWriteback)
{
    SchemeHarness h(4096);
    ZramConfig cfg = smallConfig(false);
    cfg.zpoolBytes = 16 * pageSize; // tiny pool
    ZramScheme zram(h.context(), cfg);
    h.admitPages(zram, 1, 256);
    zram.reclaim(256, false);
    EXPECT_GT(zram.lostPages(), 0u);
}

TEST(Zram, ZswapWritebackSpillsToFlash)
{
    SchemeHarness h(4096);
    ZramConfig cfg = smallConfig(true);
    cfg.zpoolBytes = 16 * pageSize;
    ZramScheme zram(h.context(), cfg);
    auto pages = h.admitPages(zram, 1, 256);
    zram.reclaim(256, false);
    EXPECT_EQ(zram.lostPages(), 0u);
    ASSERT_NE(zram.flash(), nullptr);
    EXPECT_GT(zram.flash()->hostWriteBytes(), 0u);
    // Every spilled object reaches the energy model's flash writes.
    EXPECT_EQ(h.activity.flashWriteBytes, zram.flash()->hostWriteBytes());

    // A page that went to flash swaps back in with the flash flag.
    PageMeta *flash_page = nullptr;
    for (PageMeta *p : pages) {
        if (p->location == PageLocation::Flash) {
            flash_page = p;
            break;
        }
    }
    ASSERT_NE(flash_page, nullptr);
    SwapInResult res = zram.swapIn(*flash_page);
    EXPECT_TRUE(res.fromFlash);
    EXPECT_EQ(flash_page->location, PageLocation::Resident);
}

TEST(Zram, CompressionLogRecordsTruth)
{
    SchemeHarness h(256);
    ZramScheme zram(h.context(), smallConfig());
    ZpoolLog log;
    zram.setObserver(&log);
    h.admitPages(zram, 1, 4, Hotness::Hot);
    h.admitPages(zram, 1, 4, Hotness::Cold, 100);
    zram.reclaim(8, false);
    ASSERT_EQ(log.truths.size(), 8u);
    // Admission order = eviction order: hot pages reported first.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(log.truths[i], Hotness::Hot);
}

TEST(Zram, SectorLogTracksFaults)
{
    SchemeHarness h(256);
    ZramScheme zram(h.context(), smallConfig());
    ZpoolLog log;
    zram.setObserver(&log);
    auto pages = h.admitPages(zram, 1, 8);
    zram.reclaim(8, false);
    zram.swapIn(*pages[0]);
    zram.swapIn(*pages[1]);
    ASSERT_EQ(log.sectors.size(), 2u);
    // Consecutive LRU victims got consecutive sectors.
    EXPECT_EQ(log.sectors[1], log.sectors[0] + 1);
    // Detached, the scheme reports nothing.
    zram.setObserver(nullptr);
    zram.swapIn(*pages[2]);
    EXPECT_EQ(log.sectors.size(), 2u);
}

TEST(Zram, ProactiveBackgroundCompression)
{
    SchemeHarness h(512);
    ZramConfig cfg = smallConfig();
    cfg.proactiveFraction = 0.5;
    ZramScheme zram(h.context(), cfg);
    h.admitPages(zram, 1, 100);
    EXPECT_EQ(zram.backgroundReclaimCpuNs(), 0u);
    zram.onBackground(1);
    EXPECT_EQ(zram.totalStats().compOps, 50u);
    EXPECT_GT(zram.backgroundReclaimCpuNs(), 0u);
    EXPECT_EQ(h.dram.usedPages(), 50u);
}

TEST(Zram, AccountingChargesCpuRoles)
{
    SchemeHarness h(256);
    ZramScheme zram(h.context(), smallConfig());
    auto pages = h.admitPages(zram, 1, 8);
    zram.reclaim(8, false);
    EXPECT_GT(h.cpu.total(CpuRole::Compression), 0u);
    zram.swapIn(*pages[0]);
    EXPECT_GT(h.cpu.total(CpuRole::Decompression), 0u);
    EXPECT_GT(h.cpu.total(CpuRole::FaultPath), 0u);
}
