#include "sys/mobile_system.hh"

#include <algorithm>

#include "mem/flash.hh"
#include "mem/zpool.hh"
#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"
#include "telemetry/timeline.hh"

namespace ariadne
{

namespace
{

// Hot-path probes (subsystem.verb). Namespace-scope statics so the
// name→slot interning happens once, before any hot loop.
telemetry::Counter c_touch("sys.touch");
telemetry::Counter c_alloc("sys.page_alloc");
telemetry::Counter c_majorFault("sys.major_fault");
telemetry::Counter c_lostRecreate("sys.lost_recreate");
telemetry::Counter c_launch("sys.launch");
telemetry::Counter c_relaunch("sys.relaunch");
telemetry::Counter c_background("sys.background");
telemetry::Counter c_execute("sys.execute");
telemetry::Counter c_idle("sys.idle");
telemetry::SpanProbe d_launch("sys.launch", "cold_launch", "uid");
telemetry::SpanProbe d_execute("sys.execute");
telemetry::SpanProbe d_relaunch("sys.relaunch", "relaunch", "uid");
telemetry::SpanProbe d_background("sys.background");
telemetry::SpanProbe d_idle("sys.idle");
telemetry::SpanProbe d_generate("workload.generate");

// Flight-recorder gauges, sampled every sampleIntervalNs of simulated
// time (sampleGauges). Values are simulated state at simulated times,
// so summaries are thread- and shard-invariant.
constexpr Tick sampleIntervalNs = telemetry::timelineIntervalMs * 1'000'000;
telemetry::TimelineGauge g_freePages("mem.free_pages");
telemetry::TimelineGauge g_watermarkHeadroom("mem.watermark_headroom");
telemetry::TimelineGauge g_zpoolBytes("swap.zpool_bytes");
telemetry::TimelineGauge g_flashBytes("swap.flash_bytes");
telemetry::TimelineGauge g_compressedBytes("swap.compressed_bytes");
telemetry::TimelineGauge g_hotPages("hotness.hot_pages");
telemetry::TimelineGauge g_warmPages("hotness.warm_pages");
telemetry::TimelineGauge g_coldPages("hotness.cold_pages");
telemetry::TimelineGauge g_cpuBusyPermille("cpu.busy_permille");

// Latency distributions of *simulated* nanoseconds, with per-app
// breakdowns for the leading uids.
telemetry::AppHistogram h_faultNs("sys.major_fault_ns");
telemetry::AppHistogram h_relaunchNs("sys.relaunch_ns");

/** Run the touch-stream generator @p gen inside its own span; as a
 * bare argument it would run before the sys.* span opens and count as
 * the caller's self time. */
template <typename Generate>
std::vector<TouchEvent>
generated(Generate &&gen)
{
    telemetry::ScopedSpan span(d_generate);
    return gen();
}

} // namespace

MobileSystem::MobileSystem(const SystemConfig &config,
                           const std::vector<AppProfile> &profiles,
                           WorkerState *worker)
    : cfg(config), timing(cfg.timing), appProfiles(profiles),
      ownedArena(worker ? nullptr : std::make_unique<PageArena>()),
      arena(worker ? worker->arena : *ownedArena)
{
    fatalIf(appProfiles.empty(), "MobileSystem needs at least one app");
    // A worker's arena carries the previous session's records;
    // recycle them (an owned arena is empty, so this is free).
    arena.reset();

    // Size the anonymous-page budget. Ideal-DRAM-style schemes get
    // enough memory to never reclaim (the paper's optimistic bound).
    std::size_t dram_bytes = static_cast<std::size_t>(
        static_cast<double>(cfg.dramBytes) * cfg.scale);
    if (SchemeRegistry::instance().at(cfg.scheme).unboundedDram) {
        std::size_t need = 0;
        for (const auto &p : appProfiles)
            need += p.anonBytes5min;
        dram_bytes = static_cast<std::size_t>(
                         static_cast<double>(need) * cfg.scale) *
                         2 +
                     (std::size_t{64} << 20);
    }
    dramModel = std::make_unique<Dram>(dram_bytes, cfg.lowWatermark,
                                       cfg.highWatermark);

    synth = std::make_unique<PageSynthesizer>(appProfiles);
    if (worker)
        worker->unitSizes.bind(appProfiles);
    pageCompressor = std::make_unique<PageCompressor>(
        *synth, worker ? &worker->unitSizes : nullptr);
    SwapContext ctx{simClock, timing, cpuAccount, activity, *dramModel,
                    *pageCompressor};
    swapScheme = SchemeRegistry::instance().build(
        cfg.scheme, ctx, cfg.schemeParams, cfg.scale, appProfiles);
    reclaimDaemon = std::make_unique<Kswapd>(ctx, *swapScheme);

    for (const auto &p : appProfiles) {
        instances.emplace(
            std::piecewise_construct, std::forward_as_tuple(p.uid),
            std::forward_as_tuple(p, cfg.scale,
                                  mix64(cfg.seed ^ p.uid)));
    }

    // Arm the flight recorder's sampling cadence. Only when telemetry
    // is on: disarmed, maybeSample() is one load and a branch.
    if (telemetry::enabled())
        nextSampleNs = sampleIntervalNs;
}

AppInstance &
MobileSystem::app(AppId uid)
{
    auto it = instances.find(uid);
    panicIf(it == instances.end(), "unknown app uid");
    return it->second;
}

std::vector<AppId>
MobileSystem::appIds() const
{
    std::vector<AppId> uids;
    uids.reserve(appProfiles.size());
    for (const auto &p : appProfiles)
        uids.push_back(p.uid);
    return uids;
}

MobileSystem::AppDir &
MobileSystem::dirFor(AppId uid)
{
    auto it = std::lower_bound(
        appDirs.begin(), appDirs.end(), uid,
        [](const std::unique_ptr<AppDir> &d, AppId u) {
            return d->uid < u;
        });
    if (it != appDirs.end() && (*it)->uid == uid)
        return **it;
    auto dir = std::make_unique<AppDir>();
    dir->uid = uid;
    return **appDirs.insert(it, std::move(dir));
}

void
MobileSystem::chargeFileWriteback(std::size_t new_pages)
{
    filePageDebt += cfg.fileWritebackPerAnonAlloc *
                    static_cast<double>(new_pages);
    if (filePageDebt >= 1.0) {
        auto pages = static_cast<std::uint64_t>(filePageDebt);
        filePageDebt -= static_cast<double>(pages);
        // File writeback runs on the kswapd thread; CPU only.
        cpuAccount.charge(CpuRole::FileWriteback,
                          pages * timing.params().fileWritebackCpuNs);
        activity.flashWriteBytes += pages * pageSize;
    }
}

void
MobileSystem::maybeKswapd()
{
    if (!inRelaunch)
        reclaimDaemon->maybeRun();
}

void
MobileSystem::sampleGauges()
{
    Tick now = simClock.now();
    // One sample per crossing: after a long idle jump, one point
    // lands at `now` and the cadence realigns to the next boundary.
    nextSampleNs = now - now % sampleIntervalNs + sampleIntervalNs;

    std::size_t free = dramModel->freePages();
    std::size_t low = dramModel->lowWatermarkPages();
    g_freePages.sample(now, free);
    g_watermarkHeadroom.sample(now, free > low ? free - low : 0);

    if (const Zpool *pool = swapScheme->zpool())
        g_zpoolBytes.sample(now, pool->storedBytes());
    if (const FlashDevice *fl = swapScheme->flash())
        g_flashBytes.sample(now, fl->liveBytes());
    g_compressedBytes.sample(now,
                             swapScheme->compressedStoredBytes());

    std::size_t hot = 0, warm = 0, cold = 0;
    if (swapScheme->levelPopulations(hot, warm, cold)) {
        g_hotPages.sample(now, hot);
        g_warmPages.sample(now, warm);
        g_coldPages.sample(now, cold);
    }

    if (now)
        g_cpuBusyPermille.sample(now, cpuAccount.grandTotal() * 1000 / now);
}

void
MobileSystem::processTouch(AppDir &dir, const TouchEvent &ev,
                           RelaunchStats *stats)
{
    c_touch.add();
    if (stats)
        ++stats->pagesTouched;

    PageMeta *slot = dir.page(ev.pfn);
    if (!slot) {
        // First allocation of this page.
        PageMeta &ref = *arena.alloc();
        ref.key = PageKey{dir.uid, ev.pfn};
        ref.version = ev.version;
        ref.truth = ev.truth; // alloc() defaults location to Resident
        if (ev.pfn >= dir.pages.size())
            dir.pages.resize(
                std::max<std::size_t>(ev.pfn + 1,
                                      dir.pages.size() * 2),
                nullptr);
        dir.pages[ev.pfn] = &ref;

        c_alloc.add();
        swapScheme->allocateResident();
        telemetry::journeyMark(dir.uid, ev.pfn,
                               telemetry::JourneyStep::Alloc,
                               simClock.now());
        swapScheme->onAdmit(ref);
        cpuAccount.charge(CpuRole::AppExecution, cfg.pageTouchNs);
        simClock.advance(cfg.pageTouchNs);
        activity.dramBytes += pageSize;
        chargeFileWriteback(1);
        if (!inRelaunch)
            maybeKswapd();
        maybeSample();
        return;
    }

    PageMeta &meta = *slot;
    meta.truth = ev.truth;

    switch (meta.location) {
      case PageLocation::Resident:
        cpuAccount.charge(CpuRole::AppExecution, cfg.pageTouchNs);
        simClock.advance(cfg.pageTouchNs);
        activity.dramBytes += pageSize;
        swapScheme->onAccess(meta);
        break;

      case PageLocation::Lost: {
        // Data was dropped under pressure; the app must rebuild it.
        c_lostRecreate.add();
        ++lostPages;
        if (stats)
            ++stats->lostRecreated;
        swapScheme->allocateResident();
        meta.location = PageLocation::Resident;
        swapScheme->onAdmit(meta);
        Tick rebuild = cfg.pageTouchNs + timing.params().dramPageCopyNs;
        cpuAccount.charge(CpuRole::AppExecution, rebuild);
        simClock.advance(rebuild);
        activity.dramBytes += pageSize;
        telemetry::journeyMark(dir.uid, ev.pfn,
                               telemetry::JourneyStep::Recreate,
                               simClock.now());
        break;
      }

      default: {
        c_majorFault.add();
        SwapInResult res = swapScheme->swapIn(meta);
        if (stats) {
            ++stats->majorFaults;
            if (res.stagedHit)
                ++stats->stagedHits;
            if (res.fromFlash)
                ++stats->flashFaults;
        }
        h_faultNs.record(dir.uid, res.latencyNs);
        telemetry::journeyMark(dir.uid, ev.pfn,
                               telemetry::JourneyStep::SwapIn,
                               simClock.now(), res.latencyNs);
        cpuAccount.charge(CpuRole::AppExecution, cfg.pageTouchNs);
        simClock.advance(cfg.pageTouchNs);
        break;
      }
    }
    meta.version = ev.version;
    if (!inRelaunch)
        maybeKswapd();
    maybeSample();
}

void
MobileSystem::runTouches(AppId uid,
                         const std::vector<TouchEvent> &events,
                         RelaunchStats *stats)
{
    // A relaunch (the one caller with stats) re-touches the previous
    // hot set, whose pages already have records, and moves them
    // between lists, so each touch waits on its page's record and on
    // the records of the page's LRU neighbours. The stream is known in
    // advance, so a relaunch prefetches the record prefetchAhead
    // events ahead, and the neighbours of the record half as far
    // ahead, which that earlier prefetch has brought in. A launch
    // touches pages that have no record yet, so the lookups only cost
    // it time, and an execute's gain under reclaim and its cost
    // without reclaim are each a sliver of a session; neither
    // prefetches.
    constexpr std::size_t prefetchAhead = 8;
    AppDir &dir = dirFor(uid);
    const std::size_t n = events.size();
    const bool prefetch = stats != nullptr;
    for (std::size_t i = 0; i < n; ++i) {
        if (prefetch && i + prefetchAhead < n) {
            if (const PageMeta *later =
                    dir.page(events[i + prefetchAhead].pfn))
                __builtin_prefetch(later, 1);
        }
        if (prefetch && i + prefetchAhead / 2 < n) {
            if (const PageMeta *sooner =
                    dir.page(events[i + prefetchAhead / 2].pfn)) {
                __builtin_prefetch(sooner->lruPrev, 1);
                __builtin_prefetch(sooner->lruNext, 1);
            }
        }
        if (observer)
            observer->onTouch(uid, events[i], simClock.now());
        processTouch(dir, events[i], stats);
    }
}

void
MobileSystem::appColdLaunch(AppId uid)
{
    runColdLaunch(uid, generated([&] { return app(uid).coldLaunch(); }));
}

void
MobileSystem::runColdLaunch(AppId uid,
                            const std::vector<TouchEvent> &events)
{
    c_launch.add();
    telemetry::ScopedSpan span(d_launch, uid);
    if (observer)
        observer->onOp(TraceOp::Launch, uid, 0, simClock.now());
    Tick create = timing.params().processCreateNs;
    cpuAccount.charge(CpuRole::AppExecution, create);
    simClock.advance(create);
    runTouches(uid, events, nullptr);
    maybeKswapd();
}

void
MobileSystem::appExecute(AppId uid, Tick dt)
{
    runExecute(uid, dt, generated([&] { return app(uid).execute(dt); }));
}

void
MobileSystem::runExecute(AppId uid, Tick dt,
                         const std::vector<TouchEvent> &events)
{
    c_execute.add();
    telemetry::ScopedSpan span(d_execute);
    if (observer)
        observer->onOp(TraceOp::Execute, uid, dt, simClock.now());
    Tick start = simClock.now();
    runTouches(uid, events, nullptr);
    simClock.advanceTo(start + dt);
    maybeKswapd();
    maybeSample();
}

void
MobileSystem::appBackground(AppId uid)
{
    c_background.add();
    telemetry::ScopedSpan span(d_background);
    if (observer)
        observer->onOp(TraceOp::Background, uid, 0, simClock.now());
    swapScheme->onBackground(uid);
    maybeKswapd();
}

RelaunchStats
MobileSystem::appRelaunch(AppId uid)
{
    return runRelaunch(uid, generated([&] { return app(uid).relaunch(); }));
}

RelaunchStats
MobileSystem::runRelaunch(AppId uid,
                          const std::vector<TouchEvent> &events)
{
    c_relaunch.add();
    telemetry::ScopedSpan span(d_relaunch, uid);
    if (observer)
        observer->onOp(TraceOp::Relaunch, uid, 0, simClock.now());
    RelaunchStats stats;
    stats.uid = uid;

    swapScheme->onRelaunchStart(uid);
    inRelaunch = true;
    Stopwatch sw(simClock);

    Tick base = timing.params().relaunchBaseNs;
    cpuAccount.charge(CpuRole::AppExecution, base);
    simClock.advance(base);

    runTouches(uid, events, &stats);

    stats.totalNs = sw.elapsed();
    stats.baseNs = base;
    stats.pagingNs = stats.totalNs - base;
    h_relaunchNs.record(uid, stats.totalNs);

    inRelaunch = false;
    swapScheme->onRelaunchEnd(uid);
    maybeKswapd();
    if (observer)
        observer->onOp(TraceOp::RelaunchEnd, uid, 0, simClock.now());
    return stats;
}

void
MobileSystem::idle(Tick dt)
{
    c_idle.add();
    telemetry::ScopedSpan span(d_idle);
    if (observer)
        observer->onOp(TraceOp::Idle, invalidApp, dt, simClock.now());
    simClock.advance(dt);
    maybeKswapd();
    maybeSample();
}

Tick
MobileSystem::kswapdCpuNs() const noexcept
{
    return reclaimDaemon->cpuNs() +
           swapScheme->backgroundReclaimCpuNs() +
           cpuAccount.total(CpuRole::FileWriteback);
}

ActivityTotals
MobileSystem::activityTotals() const
{
    ActivityTotals totals = activity;
    totals.wallTimeNs = simClock.now();
    totals.cpuBusyNs = cpuAccount.grandTotal();
    return totals;
}

double
MobileSystem::energyJoules() const
{
    return EnergyModel(cfg.energy).joules(activityTotals());
}

double
MobileSystem::windowEnergyJoules(const ActivityTotals &before,
                                 Tick wall_ns, double scale) const
{
    ActivityTotals totals = activityTotals();
    totals.cpuBusyNs -= before.cpuBusyNs;
    totals.dramBytes -= before.dramBytes;
    totals.flashReadBytes -= before.flashReadBytes;
    totals.flashWriteBytes -= before.flashWriteBytes;
    totals.wallTimeNs = wall_ns;
    totals.cpuBusyNs = static_cast<Tick>(
        static_cast<double>(totals.cpuBusyNs) / scale);
    totals.dramBytes = static_cast<std::size_t>(
        static_cast<double>(totals.dramBytes) / scale);
    totals.flashReadBytes = static_cast<std::size_t>(
        static_cast<double>(totals.flashReadBytes) / scale);
    totals.flashWriteBytes = static_cast<std::size_t>(
        static_cast<double>(totals.flashWriteBytes) / scale);
    return EnergyModel(cfg.energy).joules(totals);
}

} // namespace ariadne
