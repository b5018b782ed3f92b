/** @file Integration tests for MobileSystem. */

#include <gtest/gtest.h>

#include <array>

#include "analysis/similarity.hh"
#include "core/ariadne.hh"
#include "sys/session.hh"
#include "telemetry/telemetry.hh"
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

/** The touches of one app while attached, and its distinct pfns. */
class TouchedPages : public SystemObserver
{
  public:
    explicit TouchedPages(AppId uid) : uid(uid) {}

    void
    onTouch(AppId app, const TouchEvent &ev, Tick) override
    {
        if (app != uid)
            return;
        ++touches;
        seen.set(ev.pfn);
    }

    std::vector<Pfn> pfns() const { return seen.toSortedVector(); }

    std::size_t touches = 0;

  private:
    AppId uid;
    PfnBitmap seen;
};

/** Counts a session's zpool callbacks. */
struct ZpoolTraffic : SystemObserver
{
    void onZpoolPut(const PageMeta &) override { ++puts; }
    void onZpoolSwapIn(Sector) override { ++swapIns; }

    std::uint64_t puts = 0;
    std::uint64_t swapIns = 0;
};

/** A one-app profile whose cold launch allocates 64 pages, the first
 * 16 of them hot by its profile. */
AppProfile
probeProfile(double scale)
{
    AppProfile probe = standardApp("YouTube");
    probe.anonBytes10s = probe.anonBytes5min =
        static_cast<std::size_t>(64 * pageSize / scale);
    probe.hotFraction = 0.25;
    return probe;
}

/** Touches of @p pfns, each Hot, allocating when @p allocate. */
std::vector<TouchEvent>
touchesOf(const std::vector<Pfn> &pfns, bool allocate = false)
{
    std::vector<TouchEvent> events;
    for (Pfn pfn : pfns)
        events.push_back(TouchEvent{pfn, 0, Hotness::Hot, allocate, false});
    return events;
}

/** Pfns [first, end). */
std::vector<Pfn>
pfnRange(Pfn first, Pfn end)
{
    std::vector<Pfn> pfns;
    for (Pfn pfn = first; pfn < end; ++pfn)
        pfns.push_back(pfn);
    return pfns;
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

TEST(MobileSystem, AriadneFactorySeedsHotSetSizes)
{
    // The ariadne factory seeds each app's hot-set size from its
    // profile; with seed_profiles off, an app starts from
    // hot_init_pages. A cold launch fills the hot list to that size.
    SystemConfig cfg = testConfig("ariadne");
    AppProfile probe = probeProfile(cfg.scale);
    auto hot_after_launch = [&] {
        MobileSystem sys(cfg, {probe});
        sys.runColdLaunch(probe.uid, touchesOf(pfnRange(0, 64), true));
        return dynamic_cast<AriadneScheme &>(sys.scheme())
            .hotnessOrg()
            .listSize(probe.uid, Hotness::Hot);
    };
    EXPECT_EQ(hot_after_launch(), 16u);
    cfg.schemeParams.set("hot_init_pages", "24");
    EXPECT_EQ(hot_after_launch(), 16u);
    cfg.schemeParams.set("seed_profiles", "false");
    EXPECT_EQ(hot_after_launch(), 24u);
}

TEST(MobileSystem, ObserverSeesEveryZpoolPutAndSwapIn)
{
    // ZRAM and Ariadne alike report each page they put into the zpool
    // and each zpool swap-in, as their stats and counters see them.
    telemetry::setEnabled(true);
    for (const char *scheme : {"zram", "ariadne"}) {
        telemetry::Registry::global().reset();
        MobileSystem sys(testConfig(scheme), standardApps());
        ZpoolTraffic traffic;
        sys.setObserver(&traffic);
        SessionDriver(sys).targetRelaunchScenario(
            standardApp("YouTube").uid, 0);
        EXPECT_GT(traffic.puts, 0u) << scheme;
        EXPECT_GT(traffic.swapIns, 0u) << scheme;
        EXPECT_EQ(traffic.puts,
                  sys.scheme().totalStats().inBytes / pageSize)
            << scheme;
        EXPECT_EQ(traffic.swapIns,
                  telemetry::Registry::global().snapshot().counter(
                      "zram.swapin_zpool"))
            << scheme;
    }
    telemetry::setEnabled(false);
    telemetry::Registry::global().reset();
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
    TouchedPages touched(yt);
    sys.setObserver(&touched);
    sys.appColdLaunch(yt);
    sys.setObserver(nullptr);
    EXPECT_EQ(touched.pfns().size(), sys.app(yt).pageCount());
    // Detached, the observer hears nothing more.
    std::size_t touches = touched.touches;
    sys.appExecute(yt, Tick{1} * 1000000000ULL);
    EXPECT_EQ(touched.touches, touches);
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
    for (const PageKey &key :
         dynamic_cast<AriadneScheme &>(sys.scheme()).predictedHotSet(yt))
        predicted.push_back(key.pfn);
    TouchedPages touched(yt);
    sys.setObserver(&touched);
    sys.appRelaunch(yt);
    sys.setObserver(nullptr);
    double coverage = predictionCoverage(predicted, touched.pfns());
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
    AppProfile probe = probeProfile(cfg.scale);
    MobileSystem sys(cfg, {probe});
    HotnessOrg &org = dynamic_cast<AriadneScheme &>(sys.scheme())
                          .hotnessOrg();
    const AppId uid = probe.uid;
    auto sizes = [&] {
        return std::array<std::size_t, 3>{
            org.listSize(uid, Hotness::Hot),
            org.listSize(uid, Hotness::Warm),
            org.listSize(uid, Hotness::Cold)};
    };
    using Sizes = std::array<std::size_t, 3>;

    sys.runColdLaunch(uid, touchesOf(pfnRange(0, 64), true));
    EXPECT_EQ(sizes(), (Sizes{16, 0, 48}));

    // Every page of the retired list {0..15} comes back: it drains.
    std::vector<Pfn> all_hot = pfnRange(0, 16);
    for (Pfn pfn : pfnRange(16, 20))
        all_hot.push_back(pfn);
    sys.runRelaunch(uid, touchesOf(all_hot));
    EXPECT_EQ(sizes(), (Sizes{20, 0, 44}));

    // Half of {0..19} comes back; {10..19} stays warm.
    sys.runRelaunch(uid, touchesOf(pfnRange(0, 10)));
    EXPECT_EQ(sizes(), (Sizes{10, 10, 44}));

    // {0..9} retires behind what is left of {10..19}, and 10..14
    // come back.
    sys.runRelaunch(uid, touchesOf(pfnRange(10, 15)));
    EXPECT_EQ(sizes(), (Sizes{5, 15, 44}));

    // {10..14} retires behind {0..9}, and 15..19 come back: they
    // drain the oldest retirement, which sits mid-chain.
    sys.runRelaunch(uid, touchesOf(pfnRange(15, 20)));
    EXPECT_EQ(sizes(), (Sizes{5, 15, 44}));

    // Warm's victims come from its LRU end: the newest retirement,
    // least recently touched first, then the one before it. Popping
    // them drains both.
    std::vector<Pfn> victims;
    while (PageMeta *victim = org.popVictim(uid, Hotness::Warm))
        victims.push_back(victim->key.pfn);
    std::vector<Pfn> want = pfnRange(10, 15);
    for (Pfn pfn : pfnRange(0, 10))
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
