/**
 * @file
 * Tests for the exact compressed-size memo a fleet worker lends its
 * sessions: memo-backed sizes equal uncached ones, any change to a
 * unit's identity misses, entries never outlive their content or a
 * run, and fleet reports stay thread-invariant.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "compress/registry.hh"
#include "driver/fleet_runner.hh"
#include "swap/page_compressor.hh"
#include "swap/unit_size_memo.hh"
#include "sys/mobile_system.hh"
#include "telemetry/telemetry.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;

namespace
{

/** Four pages spanning three apps, several pfns and versions. */
std::vector<PageRef>
fourPages()
{
    return {PageRef{{0, 3}, 1}, PageRef{{1, 40}, 0}, PageRef{{1, 41}, 2},
            PageRef{{4, 7}, 5}};
}

/** Size of @p unit from a fresh compressor with no memo. */
std::size_t
uncachedSize(const std::vector<AppProfile> &apps,
             std::span<const PageRef> unit, CodecKind kind,
             std::size_t chunk)
{
    PageSynthesizer synth(apps);
    PageCompressor fresh(synth);
    return fresh.compressedSize(unit, *makeCodec(kind), chunk);
}

/** A compressor backed by a memo bound to the standard apps. */
struct MemoBacked
{
    MemoBacked() { memo.bind(apps); }

    std::vector<AppProfile> apps = standardApps();
    PageSynthesizer synth{apps};
    UnitSizeMemo memo;
    PageCompressor sized{synth, &memo};
};

class UnitSizeMemoSizes : public ::testing::TestWithParam<CodecKind>
{
};

} // namespace

TEST_P(UnitSizeMemoSizes, EqualFreshUncachedSizes)
{
    MemoBacked m;
    auto codec = makeCodec(GetParam());
    std::vector<PageRef> pages = fourPages();
    for (std::size_t n : {std::size_t{1}, std::size_t{4}}) {
        std::span<const PageRef> unit(pages.data(), n);
        for (std::size_t chunk : {std::size_t{1024}, std::size_t{4096},
                                  std::size_t{16384}}) {
            std::size_t want = uncachedSize(m.apps, unit, GetParam(), chunk);
            std::uint64_t ran = m.sized.bytesCompressed();
            EXPECT_EQ(m.sized.compressedSize(unit, *codec, chunk), want)
                << n << " page(s), chunk " << chunk << ", first call";
            EXPECT_EQ(m.sized.bytesCompressed(), ran + n * pageSize);
            EXPECT_EQ(m.sized.compressedSize(unit, *codec, chunk), want)
                << n << " page(s), chunk " << chunk << ", repeat call";
            EXPECT_EQ(m.sized.bytesCompressed(), ran + n * pageSize)
                << "a repeat call must not run the codec";
        }
    }
    EXPECT_EQ(m.memo.size(), 6u);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, UnitSizeMemoSizes, ::testing::ValuesIn(allCodecKinds()),
    [](const ::testing::TestParamInfo<CodecKind> &info) {
        return codecKindName(info.param);
    });

TEST(UnitSizeMemo, AnyChangeToTheIdentityMisses)
{
    MemoBacked m;
    auto lzo = makeCodec(CodecKind::Lzo);
    auto lz4 = makeCodec(CodecKind::Lz4);
    const std::vector<PageRef> stored = fourPages();
    m.sized.compressedSize(stored, *lzo, 4096);

    auto with_page = [&](PageRef ref) {
        std::vector<PageRef> unit = stored;
        unit[2] = ref;
        return unit;
    };
    std::vector<PageRef> reordered = stored;
    std::swap(reordered[1], reordered[2]);
    struct Variant
    {
        const char *what;
        std::vector<PageRef> unit;
        CodecKind codec;
        std::size_t chunk;
    };
    const std::vector<Variant> variants = {
        {"uid", with_page(PageRef{{2, 41}, 2}), CodecKind::Lzo, 4096},
        {"pfn", with_page(PageRef{{1, 42}, 2}), CodecKind::Lzo, 4096},
        {"version", with_page(PageRef{{1, 41}, 3}), CodecKind::Lzo, 4096},
        {"order", reordered, CodecKind::Lzo, 4096},
        {"chunk", stored, CodecKind::Lzo, 1024},
        {"codec", stored, CodecKind::Lz4, 4096},
    };
    for (const Variant &v : variants) {
        const Codec &codec = v.codec == CodecKind::Lzo ? *lzo : *lz4;
        std::uint64_t ran = m.sized.bytesCompressed();
        EXPECT_EQ(m.sized.compressedSize(v.unit, codec, v.chunk),
                  uncachedSize(m.apps, v.unit, v.codec, v.chunk))
            << v.what;
        EXPECT_EQ(m.sized.bytesCompressed(), ran + 4 * pageSize)
            << "a different " << v.what << " must run the codec";
    }

    std::uint64_t ran = m.sized.bytesCompressed();
    m.sized.compressedSize(stored, *lzo, 4096);
    EXPECT_EQ(m.sized.bytesCompressed(), ran) << "the stored unit hits";
}

TEST(UnitSizeMemo, LookupsCompareWholeKeys)
{
    // Thousands of units that share their first page and whose
    // second pages share any two of uid, pfn and version: probes
    // cross such near-misses, and each unit must still find its own
    // stand-in size.
    UnitSizeMemo memo;
    std::vector<AppProfile> apps = standardApps();
    memo.bind(apps);
    constexpr std::size_t count = 4000;
    auto unit_at = [](std::size_t i) {
        return std::vector<PageRef>{
            PageRef{{0, 1}, 0},
            PageRef{{static_cast<AppId>(i % 3), i / 3 % 40},
                    static_cast<std::uint32_t>(i / 120)}};
    };
    for (std::size_t i = 0; i < count; ++i)
        memo.frameSize(unit_at(i), CodecKind::Lzo, 16384,
                       [i] { return i; });
    ASSERT_EQ(memo.size(), count);
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(memo.frameSize(unit_at(i), CodecKind::Lzo, 16384,
                                 [] { return std::size_t{0}; }),
                  i);
}

TEST(UnitSizeMemo, UnitsTooWideToPackAreSizedEveryTime)
{
    MemoBacked m;
    auto lzo = makeCodec(CodecKind::Lzo);
    for (PageRef ref : {PageRef{{300, 1}, 0}, PageRef{{0, Pfn{1} << 28}, 0},
                        PageRef{{0, 1}, 1u << 20}}) {
        std::size_t want =
            uncachedSize(m.apps, {&ref, 1}, CodecKind::Lzo, pageSize);
        for (int call = 0; call < 2; ++call) {
            std::uint64_t ran = m.sized.bytesCompressed();
            EXPECT_EQ(m.sized.compressedSize({&ref, 1}, *lzo, pageSize),
                      want);
            EXPECT_EQ(m.sized.bytesCompressed(), ran + pageSize);
        }
    }
    EXPECT_EQ(m.memo.size(), 0u);
}

TEST(UnitSizeMemo, SystemWithAnotherContentMixReadsNoEntry)
{
    SystemConfig cfg;
    cfg.scale = 0.03125;
    cfg.scheme = "zram";
    std::vector<AppProfile> apps = standardApps();
    apps.resize(2);
    std::vector<AppProfile> remixed = apps;
    remixed[0].mix = apps[1].mix;
    ASSERT_FALSE(remixed[0].mix == apps[0].mix);

    auto lzo = makeCodec(CodecKind::Lzo);
    const PageRef page{{0, 5}, 0};
    const std::size_t original =
        uncachedSize(apps, {&page, 1}, CodecKind::Lzo, pageSize);
    const std::size_t changed =
        uncachedSize(remixed, {&page, 1}, CodecKind::Lzo, pageSize);
    ASSERT_NE(original, changed);

    WorkerState worker;
    {
        MobileSystem sys(cfg, apps, &worker);
        EXPECT_EQ(sys.compressor().compressedSize({&page, 1}, *lzo,
                                                  pageSize),
                  original);
        EXPECT_EQ(sys.compressor().bytesCompressed(), pageSize);
    }
    {
        // The same apps again: the entry answers.
        MobileSystem sys(cfg, apps, &worker);
        EXPECT_EQ(sys.compressor().compressedSize({&page, 1}, *lzo,
                                                  pageSize),
                  original);
        EXPECT_EQ(sys.compressor().bytesCompressed(), 0u);
    }
    {
        // uid 0 now synthesizes other bytes: the entry is gone.
        MobileSystem sys(cfg, remixed, &worker);
        EXPECT_EQ(worker.unitSizes.size(), 0u);
        EXPECT_EQ(sys.compressor().compressedSize({&page, 1}, *lzo,
                                                  pageSize),
                  changed);
        EXPECT_EQ(sys.compressor().bytesCompressed(), pageSize);
    }
}

TEST(UnitSizeMemo, FillingPastTheUnitCapKeepsEarlierEntries)
{
    MemoBacked m;
    auto lzo = makeCodec(CodecKind::Lzo);

    // Fill the memo with one-page units of an app no profile carries,
    // sized by a stand-in.
    std::size_t stand_ins = 0;
    for (Pfn pfn = 0; m.memo.size() < UnitSizeMemo::maxUnits; ++pfn) {
        PageRef ref{{200, pfn}, 0};
        m.memo.frameSize({&ref, 1}, CodecKind::Lzo, pageSize, [&] {
            ++stand_ins;
            return std::size_t{100};
        });
    }
    EXPECT_EQ(stand_ins, UnitSizeMemo::maxUnits);

    // A unit past the cap is sized exactly on every call and never
    // stored.
    const std::vector<PageRef> real = fourPages();
    const std::size_t want =
        uncachedSize(m.apps, real, CodecKind::Lzo, 16384);
    for (int call = 0; call < 2; ++call) {
        std::uint64_t ran = m.sized.bytesCompressed();
        EXPECT_EQ(m.sized.compressedSize(real, *lzo, 16384), want);
        EXPECT_EQ(m.sized.bytesCompressed(), ran + 4 * pageSize);
    }
    EXPECT_EQ(m.memo.size(), UnitSizeMemo::maxUnits);

    // Earlier entries still answer.
    PageRef first{{200, 0}, 0};
    EXPECT_EQ(m.memo.frameSize({&first, 1}, CodecKind::Lzo, pageSize,
                               [] { return std::size_t{0}; }),
              100u);
}

TEST(UnitSizeMemo, FillingPastThePageRefCapKeepsEarlierEntries)
{
    UnitSizeMemo memo;
    std::vector<AppProfile> apps = standardApps();
    memo.bind(apps);
    constexpr std::size_t unit_pages = 8;
    auto unit_at = [](Pfn first) {
        std::vector<PageRef> unit(unit_pages);
        for (PageRef &ref : unit)
            ref = PageRef{{200, first++}, 0};
        return unit;
    };
    std::size_t stand_ins = 0;
    auto size_of = [&](Pfn first) {
        return memo.frameSize(unit_at(first), CodecKind::Lzo, 16384, [&] {
            ++stand_ins;
            return std::size_t{100};
        });
    };
    const std::size_t fit = UnitSizeMemo::maxPageRefs / unit_pages;
    for (std::size_t i = 0; i < fit; ++i)
        size_of(i * unit_pages);
    EXPECT_EQ(memo.size(), fit);
    EXPECT_EQ(stand_ins, fit);

    // The next unit is sized each time it is asked for, not stored.
    const Pfn past = fit * unit_pages;
    EXPECT_EQ(size_of(past), 100u);
    EXPECT_EQ(size_of(past), 100u);
    EXPECT_EQ(stand_ins, fit + 2);
    EXPECT_EQ(memo.size(), fit);

    // Earlier entries still answer.
    EXPECT_EQ(size_of(0), 100u);
    EXPECT_EQ(size_of(past - unit_pages), 100u);
    EXPECT_EQ(stand_ins, fit + 2);
}

namespace
{

/** A small ZRAM fleet under memory pressure. */
driver::ScenarioSpec
zramSpec()
{
    return driver::ScenarioSpec::parseString(R"(
name = memo-zram
scheme = zram
scale = 0.0625
seed = 5
fleet = 4
event = warmup
event = repeat 10
event =   switch_next 250ms 0s
event = end
)");
}

/** RAII: telemetry on and zeroed, off and zeroed again on exit. */
class TelemetryOn
{
  public:
    TelemetryOn()
    {
        telemetry::Registry::global().reset();
        telemetry::setEnabled(true);
    }

    ~TelemetryOn()
    {
        telemetry::setEnabled(false);
        telemetry::Registry::global().reset();
    }
};

/** Registry snapshot of one run(4, 1) of @p runner. */
telemetry::Registry::Snapshot
runOnce(const driver::FleetRunner &runner)
{
    telemetry::Registry::global().reset();
    runner.run(4, 1);
    return telemetry::Registry::global().snapshot();
}

} // namespace

TEST(UnitSizeMemoFleet, EachRunSizesItsUnitsAfresh)
{
    // perfbench re-runs one runner for every fleet it times; a memo
    // that outlived a run would time the repetition, not the fleet.
    TelemetryOn on;
    driver::FleetRunner runner(zramSpec());
    std::uint64_t first =
        runOnce(runner).duration("compressor.compress.lzo").count;
    EXPECT_GT(first, 0u);
    EXPECT_EQ(runOnce(runner).duration("compressor.compress.lzo").count,
              first);
}

TEST(UnitSizeMemoFleet, CodecRunsFewerTimesThanZramCompresses)
{
    TelemetryOn on;
    driver::FleetRunner runner(zramSpec());
    telemetry::Registry::Snapshot snap = runOnce(runner);
    std::uint64_t codec_runs =
        snap.duration("compressor.compress.lzo").count;
    EXPECT_GT(codec_runs, 0u);
    EXPECT_LT(codec_runs, snap.counter("zram.compress_out"));
    EXPECT_EQ(codec_runs, snap.duration("compressor.materialize").count);
}

TEST(UnitSizeMemoFleet, ReportIsThreadInvariant)
{
    driver::FleetRunner runner(zramSpec());
    std::ostringstream one, three;
    runner.run(4, 1).writeJson(one);
    runner.run(4, 3).writeJson(three);
    EXPECT_EQ(one.str(), three.str());
}
