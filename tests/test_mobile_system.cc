/** @file Integration tests for MobileSystem. */

#include <gtest/gtest.h>

#include <array>

#include "analysis/similarity.hh"
#include "core/ariadne.hh"
#include "sys/session.hh"
#include "workload/apps.hh"

using namespace ariadne;

namespace
{

SystemConfig
testConfig(const std::string &kind)
{
    SystemConfig cfg;
    cfg.scale = 0.03125; // 1/32 for fast tests
    cfg.scheme = kind;
    cfg.seed = 7;
    return cfg;
}

} // namespace

TEST(MobileSystem, ColdLaunchAllocatesWorkingSet)
{
    MobileSystem sys(testConfig("zram"), standardApps());
    AppId yt = standardApp("YouTube").uid;
    std::size_t used_before = sys.dram().usedPages();
    sys.appColdLaunch(yt);
    EXPECT_GT(sys.dram().usedPages(), used_before + 100);
    EXPECT_GT(sys.clock().now(),
              sys.config().timing.processCreateNs);
}

TEST(MobileSystem, RelaunchStatsAreConsistent)
{
    MobileSystem sys(testConfig("zram"), standardApps());
    SessionDriver driver(sys);
    AppId yt = standardApp("YouTube").uid;
    RelaunchStats st = driver.targetRelaunchScenario(yt, 0);
    EXPECT_EQ(st.uid, yt);
    EXPECT_GT(st.pagesTouched, 0u);
    EXPECT_EQ(st.totalNs, st.baseNs + st.pagingNs);
    EXPECT_GE(st.fullScaleNs(sys.config().scale), st.totalNs);
}

TEST(MobileSystem, DramSchemeNeverFaults)
{
    MobileSystem sys(testConfig("dram"), standardApps());
    SessionDriver driver(sys);
    RelaunchStats st =
        driver.targetRelaunchScenario(standardApp("Twitter").uid, 0);
    EXPECT_EQ(st.majorFaults, 0u);
    EXPECT_EQ(sys.scheme().totalStats().compOps, 0u);
}

TEST(MobileSystem, SchemeOrderingMatchesFig2)
{
    // DRAM < ZRAM < SWAP relaunch latency (paper Fig. 2).
    auto run = [](const std::string &kind) {
        MobileSystem sys(testConfig(kind), standardApps());
        SessionDriver driver(sys);
        return driver
            .targetRelaunchScenario(standardApp("YouTube").uid, 0)
            .totalNs;
    };
    Tick dram = run("dram");
    Tick zram = run("zram");
    Tick swap = run("swap");
    EXPECT_LT(dram, zram);
    EXPECT_LT(zram, swap);
}

TEST(MobileSystem, AriadneBeatsZram)
{
    auto run = [](const std::string &kind) {
        MobileSystem sys(testConfig(kind), standardApps());
        SessionDriver driver(sys);
        return driver
            .targetRelaunchScenario(standardApp("YouTube").uid, 0)
            .totalNs;
    };
    EXPECT_LT(run("ariadne"), run("zram"));
}

TEST(MobileSystem, HotnessCapabilityOnlyForPredictingSchemes)
{
    // The capability query replaces the old AriadneScheme downcast:
    // schemes without hot-set prediction return nullptr, Ariadne
    // exposes seeding and prediction through the interface.
    MobileSystem zram(testConfig("zram"), standardApps());
    EXPECT_EQ(zram.hotness(), nullptr);
    MobileSystem ari(testConfig("ariadne"), standardApps());
    ASSERT_NE(ari.hotness(), nullptr);
    // The capability serves predictions once the scheme has seen a
    // relaunch (the same data Fig. 14 scores).
    SessionDriver driver(ari);
    AppId yt = standardApp("YouTube").uid;
    driver.targetRelaunchScenario(yt, 0);
    EXPECT_FALSE(ari.hotness()->predictedHotSet(yt).empty());
}

TEST(MobileSystem, KswapdCpuGrowsUnderPressure)
{
    MobileSystem sys(testConfig("zram"), standardApps());
    SessionDriver driver(sys);
    driver.warmUpAllApps();
    EXPECT_GT(sys.kswapdCpuNs(), 0u);
}

TEST(MobileSystem, EnergyIsPositiveAndActivitySane)
{
    MobileSystem sys(testConfig("zram"), standardApps());
    SessionDriver driver(sys);
    driver.targetRelaunchScenario(standardApp("Firefox").uid, 0);
    ActivityTotals totals = sys.activityTotals();
    EXPECT_EQ(totals.wallTimeNs, sys.clock().now());
    EXPECT_GT(totals.cpuBusyNs, 0u);
    EXPECT_GT(totals.dramBytes, 0u);
    EXPECT_GT(sys.energyJoules(), 0.0);
}

TEST(MobileSystem, TouchCaptureRecordsAccesses)
{
    MobileSystem sys(testConfig("zram"), standardApps());
    AppId yt = standardApp("YouTube").uid;
    sys.startTouchCapture(yt);
    sys.appColdLaunch(yt);
    auto touched = sys.stopTouchCapture(yt);
    EXPECT_EQ(touched.size(), sys.app(yt).pageCount());
    EXPECT_TRUE(sys.stopTouchCapture(yt).empty()); // consumed
}

TEST(MobileSystem, IdleRunsKswapd)
{
    MobileSystem sys(testConfig("zram"), standardApps());
    Tick t0 = sys.clock().now();
    sys.idle(Tick{5} * 1000000000ULL);
    EXPECT_EQ(sys.clock().now() - t0, Tick{5} * 1000000000ULL);
}

TEST(MobileSystem, DeterministicAcrossRuns)
{
    auto run = [] {
        MobileSystem sys(testConfig("ariadne"),
                         standardApps());
        SessionDriver driver(sys);
        return driver
            .targetRelaunchScenario(standardApp("GoogleEarth").uid, 1)
            .totalNs;
    };
    EXPECT_EQ(run(), run());
}

TEST(MobileSystem, CoverageReportedForAriadne)
{
    MobileSystem sys(testConfig("ariadne"), standardApps());
    SessionDriver driver(sys);
    AppId yt = standardApp("YouTube").uid;
    driver.targetRelaunchScenario(yt, 0);
    // Second relaunch: prediction from the first one exists.
    std::vector<Pfn> predicted;
    for (const PageKey &key : sys.hotness()->predictedHotSet(yt))
        predicted.push_back(key.pfn);
    sys.startTouchCapture(yt);
    sys.appRelaunch(yt);
    double coverage =
        predictionCoverage(predicted, sys.stopTouchCapture(yt));
    EXPECT_GT(predicted.size(), 0u);
    EXPECT_GT(coverage, 0.4);
    EXPECT_LE(coverage, 1.0);
}

TEST(MobileSystem, RelaunchesDrainRetiredHotLists)
{
    // A relaunch retires the app's hot list to warm's LRU end, and a
    // retired list that loses its last page leaves warm's chain. The
    // generated workloads never drain one, so drive explicit streams.
    SystemConfig cfg = testConfig("ariadne");
    AppProfile probe = standardApp("YouTube");
    // 64 pages at launch, the first 16 of them hot.
    probe.anonBytes10s = probe.anonBytes5min =
        static_cast<std::size_t>(64 * pageSize / cfg.scale);
    probe.hotFraction = 0.25;
    MobileSystem sys(cfg, {probe});
    HotnessOrg &org = dynamic_cast<AriadneScheme &>(sys.scheme())
                          .hotnessOrg();
    const AppId uid = probe.uid;
    auto touches = [](std::vector<Pfn> pfns, bool allocate = false) {
        std::vector<TouchEvent> events;
        for (Pfn pfn : pfns)
            events.push_back(
                TouchEvent{pfn, 0, Hotness::Hot, allocate, false});
        return events;
    };
    auto range = [](Pfn first, Pfn end) {
        std::vector<Pfn> pfns;
        for (Pfn pfn = first; pfn < end; ++pfn)
            pfns.push_back(pfn);
        return pfns;
    };
    auto sizes = [&] {
        return std::array<std::size_t, 3>{
            org.listSize(uid, Hotness::Hot),
            org.listSize(uid, Hotness::Warm),
            org.listSize(uid, Hotness::Cold)};
    };
    using Sizes = std::array<std::size_t, 3>;

    sys.runColdLaunch(uid, touches(range(0, 64), true));
    EXPECT_EQ(sizes(), (Sizes{16, 0, 48}));

    // Every page of the retired list {0..15} comes back: it drains.
    std::vector<Pfn> all_hot = range(0, 16);
    for (Pfn pfn : range(16, 20))
        all_hot.push_back(pfn);
    sys.runRelaunch(uid, touches(all_hot));
    EXPECT_EQ(sizes(), (Sizes{20, 0, 44}));

    // Half of {0..19} comes back; {10..19} stays warm.
    sys.runRelaunch(uid, touches(range(0, 10)));
    EXPECT_EQ(sizes(), (Sizes{10, 10, 44}));

    // {0..9} retires behind what is left of {10..19}, and 10..14
    // come back.
    sys.runRelaunch(uid, touches(range(10, 15)));
    EXPECT_EQ(sizes(), (Sizes{5, 15, 44}));

    // {10..14} retires behind {0..9}, and 15..19 come back: they
    // drain the oldest retirement, which sits mid-chain.
    sys.runRelaunch(uid, touches(range(15, 20)));
    EXPECT_EQ(sizes(), (Sizes{5, 15, 44}));

    // Warm's victims come from its LRU end: the newest retirement,
    // least recently touched first, then the one before it. Popping
    // them drains both.
    std::vector<Pfn> victims;
    while (PageMeta *victim = org.popVictim(uid, Hotness::Warm))
        victims.push_back(victim->key.pfn);
    std::vector<Pfn> want = range(10, 15);
    for (Pfn pfn : range(0, 10))
        want.push_back(pfn);
    EXPECT_EQ(victims, want);
    EXPECT_EQ(sizes(), (Sizes{5, 0, 44}));
    EXPECT_EQ(org.peekVictim(Hotness::Warm), nullptr);
}

TEST(MobileSystemDeath, UnknownAppPanics)
{
    MobileSystem sys(testConfig("zram"), standardApps());
    EXPECT_DEATH(sys.appColdLaunch(999), "unknown app");
}

TEST(SessionDriver, UsageScenariosAdvanceTimeAndDifferInIntensity)
{
    // The heavy mix packs more switches (and thus more comp/decomp
    // work under ZRAM) into the same wall-clock span than the light
    // mix, which idles between switches.
    auto cpu_after = [](bool heavy) {
        MobileSystem sys(testConfig("zram"), standardApps());
        SessionDriver driver(sys);
        if (heavy)
            driver.heavyUsageScenario(Tick{20} * 1000000000ULL);
        else
            driver.lightUsageScenario(Tick{20} * 1000000000ULL);
        return sys.cpu().compDecompTotal();
    };
    EXPECT_GT(cpu_after(true), cpu_after(false));
}

TEST(SessionDriver, UsageScenariosAreDeterministic)
{
    auto run = [](bool heavy) {
        MobileSystem sys(testConfig("zram"), standardApps());
        SessionDriver driver(sys);
        if (heavy)
            driver.heavyUsageScenario(Tick{10} * 1000000000ULL);
        else
            driver.lightUsageScenario(Tick{10} * 1000000000ULL,
                                      Tick{1} * 1000000000ULL);
        return sys.clock().now() + sys.kswapdCpuNs();
    };
    EXPECT_EQ(run(false), run(false));
    EXPECT_EQ(run(true), run(true));
}

TEST(MobileSystem, WindowEnergyMatchesFullRunFromZeroSnapshot)
{
    MobileSystem sys(testConfig("zram"), standardApps());
    SessionDriver driver(sys);
    driver.targetRelaunchScenario(standardApp("YouTube").uid, 0);
    // A zero snapshot over the full wall time at scale 1 is exactly
    // the whole-scenario energy.
    EXPECT_DOUBLE_EQ(
        sys.windowEnergyJoules(ActivityTotals{}, sys.clock().now(),
                               1.0),
        sys.energyJoules());
}

TEST(MobileSystem, WindowEnergyExcludesActivityBeforeTheSnapshot)
{
    MobileSystem sys(testConfig("zram"), standardApps());
    SessionDriver driver(sys);
    driver.warmUpAllApps();
    ActivityTotals before = sys.activityTotals();
    driver.heavyUsageScenario(Tick{10} * 1000000000ULL);

    constexpr Tick window = Tick{10} * 1000000000ULL;
    double busy = sys.windowEnergyJoules(before, window, 1.0);
    // An identical window with nothing in it costs only static power.
    double idle_floor =
        sys.windowEnergyJoules(sys.activityTotals(), window, 1.0);
    EXPECT_GT(busy, idle_floor);
    EXPECT_GT(idle_floor, 0.0);
    // Rescaling dynamic volumes to paper scale can only add energy.
    EXPECT_GT(sys.windowEnergyJoules(before, window,
                                     sys.config().scale),
              busy);
}
