/** @file Unit tests for the compressed store under ZRAM and Ariadne. */

#include <gtest/gtest.h>

#include <vector>

#include "core/ariadne.hh"
#include "scheme_test_util.hh"
#include "swap/compressed_store.hh"
#include "swap/zram.hh"
#include "telemetry/telemetry.hh"

using namespace ariadne;
using namespace ariadne::testutil;

namespace
{

using SpillClass = CompressedStore::SpillClass;
constexpr std::size_t block = Zpool::blockBytes;

/** What makeRoom() reported, in spill order. */
struct SpillLog
{
    std::vector<std::uint64_t> cookies;
    std::vector<FlashSlot> slots;

    auto
    recorder()
    {
        return [this](std::uint64_t cookie, FlashSlot slot) {
            cookies.push_back(cookie);
            slots.push_back(slot);
        };
    }
};

std::size_t
countAt(const std::vector<PageMeta *> &pages, PageLocation where)
{
    std::size_t n = 0;
    for (const PageMeta *p : pages)
        n += p->location == where;
    return n;
}

AriadneConfig
ariadneConfig(const std::string &text, std::size_t zpool_blocks,
              std::size_t flash_blocks)
{
    AriadneConfig cfg = AriadneConfig::parse(text);
    cfg.zpoolBytes = zpool_blocks * pageSize;
    cfg.flashBytes = flash_blocks * pageSize;
    cfg.defaultHotInitPages = 8;
    return cfg;
}

ZramConfig
zramConfig(bool writeback)
{
    ZramConfig cfg;
    cfg.zpoolBytes = 16 * pageSize;
    cfg.flashBytes = 1024 * pageSize;
    cfg.writeback = writeback;
    cfg.proactiveFraction = 0.0;
    return cfg;
}

/** Every test reads the store's counters from zeroed shards. */
class CompressedStoreCounters : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::setEnabled(true);
        telemetry::Registry::global().reset();
    }

    void
    TearDown() override
    {
        telemetry::setEnabled(false);
        telemetry::Registry::global().reset();
    }

    static std::uint64_t
    counter(const char *name)
    {
        return telemetry::Registry::global().snapshot().counter(name);
    }
};

} // namespace

TEST(CompressedStore, SpillsInSectorOrderAndRecycledCookiesWait)
{
    SchemeHarness h;
    CompressedStore store(h.context(), 3 * block, 64 * block);
    ZObjectId first = store.put(block, 1, SpillClass::First);
    store.put(block, 2, SpillClass::First);
    store.put(block, 3, SpillClass::First);
    // Unit 1 is swapped in, and a new unit takes its freed id.
    store.swapInZpool(first, nullptr);
    store.put(block, 1, SpillClass::First);

    SpillLog log;
    for (std::uint64_t cookie = 4; cookie <= 6; ++cookie) {
        ASSERT_TRUE(store.makeRoom(block, false, log.recorder()));
        store.put(block, cookie, SpillClass::First);
    }
    EXPECT_EQ(log.cookies, (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(CompressedStore, FirstClassSpillsBeforeLater)
{
    SchemeHarness h;
    CompressedStore store(h.context(), 4 * block, 64 * block);
    store.put(block, 10, SpillClass::Later);
    store.put(block, 11, SpillClass::First);
    store.put(block, 12, SpillClass::Later);
    store.put(block, 13, SpillClass::First);
    // A 4-block object needs every block.
    SpillLog log;
    ASSERT_TRUE(store.makeRoom(4 * block, false, log.recorder()));
    EXPECT_EQ(log.cookies, (std::vector<std::uint64_t>{11, 13, 10, 12}));
}

TEST(CompressedStore, AriadneSpillsColdUnitsBeforeOlderHotUnits)
{
    SchemeHarness h(512);
    AriadneConfig cfg = ariadneConfig("AL-1K-2K-16K", 8, 64);
    cfg.preDecompEnabled = false;
    AriadneScheme scheme(h.context(), cfg);
    scheme.seedProfile(1, 4);
    auto pages = h.admitPages(scheme, 1, 40); // hot 0..3, cold 4..39
    scheme.onBackground(1); // AL: four single-page hot units
    while (scheme.flash()->hostWriteBytes() == 0)
        ASSERT_EQ(scheme.reclaim(4, false), 4u); // one cold unit
    // The oldest cold unit left first; the older hot units stayed.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(pages[i]->location, PageLocation::Zpool) << i;
    for (std::size_t i = 4; i < 8; ++i)
        EXPECT_EQ(pages[i]->location, PageLocation::Flash) << i;
}

TEST(CompressedStore, WritesBackWhileFlashAcceptsThenDrops)
{
    SchemeHarness h;
    CompressedStore store(h.context(), block, block);
    SpillLog log;
    store.put(block, 1, SpillClass::First);
    ASSERT_TRUE(store.makeRoom(block, false, log.recorder()));
    store.put(block, 2, SpillClass::First);
    ASSERT_TRUE(store.makeRoom(block, false, log.recorder()));
    ASSERT_EQ(log.cookies, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_NE(log.slots[0], invalidFlashSlot); // written back
    EXPECT_EQ(log.slots[1], invalidFlashSlot); // flash full: dropped
    EXPECT_EQ(store.flash()->liveBytes(), block);
    EXPECT_EQ(store.storedBytes(), block);
    EXPECT_EQ(h.activity.flashWriteBytes, block);

    // Without a flash tier every spill drops.
    CompressedStore no_flash(h.context(), block, 0);
    EXPECT_EQ(no_flash.flash(), nullptr);
    no_flash.put(block, 3, SpillClass::First);
    SpillLog dropped;
    ASSERT_TRUE(no_flash.makeRoom(block, false, dropped.recorder()));
    EXPECT_EQ(dropped.slots, (std::vector<FlashSlot>{invalidFlashSlot}));
    EXPECT_EQ(no_flash.storedBytes(), 0u);
    // Nothing is left to spill, and 2 blocks never fit a 1-block pool.
    EXPECT_FALSE(no_flash.makeRoom(2 * block, false, dropped.recorder()));
}

TEST(CompressedStore, DroppedPagesAreLostAndCounted)
{
    // ZRAM has no flash tier, so a spill drops its page.
    SchemeHarness h(4096);
    ZramScheme zram(h.context(), zramConfig(false));
    auto zpages = h.admitPages(zram, 1, 256);
    zram.reclaim(256, false);
    EXPECT_GT(zram.lostPages(), 0u);
    EXPECT_EQ(countAt(zpages, PageLocation::Lost), zram.lostPages());

    // Ariadne drops whole units once its flash tier is full.
    SchemeHarness h2(4096);
    AriadneScheme ariadne(h2.context(),
                          ariadneConfig("EHL-1K-2K-16K", 32, 8));
    ariadne.seedProfile(1, 8);
    auto apages = h2.admitPages(ariadne, 1, 512);
    ariadne.reclaim(480, false);
    EXPECT_GT(countAt(apages, PageLocation::Flash), 0u);
    EXPECT_GT(ariadne.lostPages(), 0u);
    EXPECT_EQ(countAt(apages, PageLocation::Lost), ariadne.lostPages());
}

TEST_F(CompressedStoreCounters, SwapInsCountUnderZswap)
{
    SchemeHarness h(4096);
    ZramScheme zswap(h.context(), zramConfig(true));
    auto pages = h.admitPages(zswap, 1, 256);
    zswap.reclaim(256, false);
    EXPECT_EQ(counter("zram.compress_out"), 256u);
    EXPECT_EQ(counter("zram.writeback"),
              countAt(pages, PageLocation::Flash));

    zswap.swapIn(*pages.back()); // the newest page is in the zpool
    zswap.swapIn(*pages.front()); // the oldest went to flash
    EXPECT_EQ(counter("zram.swapin_zpool"), 1u);
    EXPECT_EQ(counter("zram.swapin_flash"), 1u);
    EXPECT_EQ(telemetry::Registry::global()
                  .snapshot()
                  .duration("zram.swapin")
                  .count,
              2u);
}

TEST_F(CompressedStoreCounters, SwapInsCountUnderAriadne)
{
    SchemeHarness h(4096);
    AriadneConfig cfg = ariadneConfig("EHL-1K-2K-16K", 32, 4096);
    cfg.preDecompEnabled = false;
    AriadneScheme scheme(h.context(), cfg);
    scheme.seedProfile(1, 8);
    auto pages = h.admitPages(scheme, 1, 512); // hot 0..7
    scheme.reclaim(480, false);                // cold units 8..487
    EXPECT_GT(counter("zram.writeback"), 0u);
    EXPECT_EQ(counter("zram.dropped"), 0u);

    ASSERT_EQ(pages[8]->location, PageLocation::Flash);
    ASSERT_EQ(pages[487]->location, PageLocation::Zpool);
    scheme.swapIn(*pages[8]);
    scheme.swapIn(*pages[487]);
    EXPECT_EQ(counter("zram.swapin_zpool"), 1u);
    EXPECT_EQ(counter("zram.swapin_flash"), 1u);
}
