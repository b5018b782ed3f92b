/**
 * @file
 * MobileSystem — the top-level integration of the simulator.
 *
 * Composes the virtual device (clock, timing, energy, DRAM budget,
 * kswapd) with one swap scheme and the workload's AppInstances, and
 * exposes the driver API the session layer and the benches use:
 * cold-launch, execute, background, relaunch (measured), idle.
 *
 * Footprints are scaled by `SystemConfig::scale`; per-page costs are
 * scale-invariant, so RelaunchStats::fullScaleNs() reconstructs the
 * paper-scale latency exactly (base + paging / scale).
 */

#ifndef ARIADNE_SYS_MOBILE_SYSTEM_HH
#define ARIADNE_SYS_MOBILE_SYSTEM_HH

#include <map>
#include <memory>

#include "mem/dram.hh"
#include "mem/page_arena.hh"
#include "swap/kswapd.hh"
#include "swap/scheme_registry.hh"
#include "swap/unit_size_memo.hh"
#include "sys/system_config.hh"
#include "workload/generator.hh"
#include "workload/page_synth.hh"
#include "workload/trace.hh"

namespace ariadne
{

/** Measured relaunch outcome (one bar of Fig. 2 / Fig. 10). */
struct RelaunchStats
{
    AppId uid = invalidApp;
    Tick totalNs = 0;  //!< measured at the simulation scale
    Tick baseNs = 0;   //!< scale-independent base (UI/runtime work)
    Tick pagingNs = 0; //!< page-count-proportional part
    std::size_t pagesTouched = 0;
    std::size_t majorFaults = 0;
    std::size_t stagedHits = 0;  //!< PreDecomp buffer hits
    std::size_t flashFaults = 0;
    std::size_t lostRecreated = 0;

    /** Reconstruct the paper-scale latency from a scaled run. */
    Tick
    fullScaleNs(double scale) const noexcept
    {
        return baseNs + static_cast<Tick>(
                            static_cast<double>(pagingNs) / scale);
    }
};

/**
 * What a fleet worker thread keeps across the sessions it runs, one
 * at a time: the page arena each session's records come from, whose
 * warmed-up slabs are reused instead of re-faulted per session, and
 * the memo of compressed unit sizes the sessions share.
 */
struct WorkerState
{
    PageArena arena;
    UnitSizeMemo unitSizes;
};

/** Top-level simulated device plus workload. */
class MobileSystem
{
  public:
    /**
     * @param config Device and scheme configuration.
     * @param profiles Applications available to this system.
     * @param worker Optional externally owned worker state. Its arena
     *        is reset() and then used in place of an internally owned
     *        one, and its memo is bound to @p profiles and sizes this
     *        system's units. Must outlive this system, and only the
     *        most recently built system may use it.
     */
    MobileSystem(const SystemConfig &config,
                 const std::vector<AppProfile> &profiles,
                 WorkerState *worker = nullptr);

    /** Cold-launch an app (process creation plus first working set). */
    void appColdLaunch(AppId uid);

    /** Run an app in the foreground for @p dt. */
    void appExecute(AppId uid, Tick dt);

    /** Move an app to the background. */
    void appBackground(AppId uid);

    /** Hot-relaunch an app and measure it. */
    RelaunchStats appRelaunch(AppId uid);

    /** Idle wall time (kswapd catches up). */
    void idle(Tick dt);

    // --- Replay primitives ---------------------------------------------
    // The app* driver calls above generate their touch streams from
    // this system's AppInstances; these variants take the stream as an
    // argument instead, which is how trace replay re-executes a
    // recorded session without consulting the workload generator. The
    // generated and the replayed path share one implementation, so a
    // recorded run and its replay are bit-identical.

    /** appColdLaunch with an explicit touch stream. */
    void runColdLaunch(AppId uid, const std::vector<TouchEvent> &events);

    /** appExecute with an explicit touch stream. */
    void runExecute(AppId uid, Tick dt,
                    const std::vector<TouchEvent> &events);

    /** appRelaunch with an explicit touch stream. */
    RelaunchStats runRelaunch(AppId uid,
                              const std::vector<TouchEvent> &events);

    /**
     * Attach (or with nullptr detach) a passive observer of the
     * primitive op/touch stream and of the scheme's zpool traffic.
     * Not owned; must outlive the runs it observes.
     */
    void
    setObserver(SystemObserver *obs) noexcept
    {
        observer = obs;
        swapScheme->setObserver(obs);
    }

    // --- Introspection -------------------------------------------------
    const Clock &clock() const noexcept { return simClock; }
    const CpuAccount &cpu() const noexcept { return cpuAccount; }
    SwapScheme &scheme() noexcept { return *swapScheme; }
    const SwapScheme &scheme() const noexcept { return *swapScheme; }
    AppInstance &app(AppId uid);
    /** Uids of every application, in profile order. */
    std::vector<AppId> appIds() const;
    const SystemConfig &config() const noexcept { return cfg; }
    Dram &dram() noexcept { return *dramModel; }
    PageCompressor &compressor() noexcept { return *pageCompressor; }

    /** kswapd-thread CPU (reclaim daemon + file writeback), Fig. 3. */
    Tick kswapdCpuNs() const noexcept;

    /** Consolidated activity for the energy model. */
    ActivityTotals activityTotals() const;

    /** Scenario energy in Joules (Table 2). */
    double energyJoules() const;

    /**
     * Energy of a measured window: activity since @p before (a prior
     * activityTotals() snapshot) over @p wall_ns of wall time, with
     * the dynamic volumes (CPU, DRAM, flash traffic) rescaled by
     * 1/@p scale back to paper scale. Table 2 measures this after
     * warm-up so identical cold launches cancel across schemes.
     */
    double windowEnergyJoules(const ActivityTotals &before,
                              Tick wall_ns, double scale) const;

    /** Pages recreated after being dropped under pressure. */
    std::uint64_t lostRecreations() const noexcept { return lostPages; }

  private:
    /**
     * Per-app page directory. The workload generator hands out pfns
     * densely from 0, so a flat vector indexed by pfn replaces the
     * old hashed PageKey map: one bounds check plus one load per
     * touch lookup. PageMeta records themselves live in the arena so
     * their addresses stay stable for the intrusive LruList hooks.
     */
    struct AppDir
    {
        AppId uid = invalidApp;
        std::vector<PageMeta *> pages;

        PageMeta *
        page(Pfn pfn) const noexcept
        {
            return pfn < pages.size() ? pages[pfn] : nullptr;
        }
    };

    /** Directory for @p uid, created on first use (sorted by uid). */
    AppDir &dirFor(AppId uid);
    void processTouch(AppDir &dir, const TouchEvent &ev,
                      RelaunchStats *stats);
    void runTouches(AppId uid, const std::vector<TouchEvent> &events,
                    RelaunchStats *stats);
    void maybeKswapd();
    void chargeFileWriteback(std::size_t new_pages);

    /** Flight-recorder cadence check: sample the gauges when the
     * simulated clock crossed the next boundary. Disarmed (telemetry
     * off at construction) this is one member load and a branch. */
    void
    maybeSample()
    {
        if (nextSampleNs != 0 && simClock.now() >= nextSampleNs)
            sampleGauges();
    }

    /** Read every gauge from live state and advance the cadence.
     * Strictly out-of-band: reads only, never mutates. */
    void sampleGauges();

    SystemConfig cfg;
    Clock simClock;
    TimingModel timing;
    CpuAccount cpuAccount;
    ActivityTotals activity;
    std::unique_ptr<Dram> dramModel;
    std::vector<AppProfile> appProfiles;
    std::unique_ptr<PageSynthesizer> synth;
    std::unique_ptr<PageCompressor> pageCompressor;
    std::unique_ptr<SwapScheme> swapScheme;
    std::unique_ptr<Kswapd> reclaimDaemon;

    /** Backing arena when the caller lent no worker state. */
    std::unique_ptr<PageArena> ownedArena;
    /** The arena in use (owned or the worker's); reset by the ctor. */
    PageArena &arena;
    /** App directories sorted by uid (handful of apps; binary
     * search, resolved once per touch batch). */
    std::vector<std::unique_ptr<AppDir>> appDirs;
    std::map<AppId, AppInstance> instances;

    SystemObserver *observer = nullptr;
    bool inRelaunch = false;
    double filePageDebt = 0.0;
    std::uint64_t lostPages = 0;

    /** Next simulated-time sampling boundary (0 = disarmed; armed at
     * construction iff telemetry is on). */
    Tick nextSampleNs = 0;
};

} // namespace ariadne

#endif // ARIADNE_SYS_MOBILE_SYSTEM_HH
