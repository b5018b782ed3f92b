/**
 * @file
 * Per-session result types shared by the driver layers.
 *
 * One fleet session produces a SessionResult; WorkloadSources fill it
 * while driving the session (workload_source.hh) and FleetRunner folds
 * it into the fleet aggregate (fleet_runner.hh). Benches read the
 * retained records for per-session detail.
 */

#ifndef ARIADNE_DRIVER_SESSION_RESULT_HH
#define ARIADNE_DRIVER_SESSION_RESULT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "sys/session.hh"

namespace ariadne::driver
{

/** One measured relaunch inside a session. */
struct RelaunchSample
{
    AppId uid = invalidApp;
    /** Paper-scale latency in milliseconds. */
    double fullScaleMs = 0.0;
    RelaunchStats stats;
};

/** Everything one fleet session produced. */
struct SessionResult
{
    std::size_t index = 0;
    std::uint64_t seed = 0;

    /** Measured relaunches, in program order. */
    std::vector<RelaunchSample> relaunches;

    Tick compCpuNs = 0;
    Tick decompCpuNs = 0;
    Tick kswapdCpuNs = 0;
    Tick grandCpuNs = 0;
    double energyJ = 0.0;
    Tick simulatedNs = 0;

    /** Scheme-wide compression accounting. */
    CompStats comp;
    /** Per-app compression accounting (Fig. 15 reads the target's). */
    std::map<AppId, CompStats> appComp;

    std::uint64_t stagedHits = 0;
    std::uint64_t majorFaults = 0;
    std::uint64_t flashFaults = 0;
    std::uint64_t lostPages = 0;
    std::uint64_t directReclaims = 0;

    /** Comp+decomp CPU in paper-scale milliseconds. */
    double compDecompCpuMs(double scale) const noexcept;
};

/**
 * Per-session hook a `custom` event calls back into:
 * hooks[event.hook](system, driver, result). The benches use these
 * for measurements the declarative vocabulary cannot express
 * (attaching a SystemObserver, workload-layer probes).
 * Hooks run on the worker thread of their session; a hook that
 * writes bench state shared across sessions must synchronize or run
 * single-session fleets.
 */
using SessionHook =
    std::function<void(MobileSystem &, SessionDriver &, SessionResult &)>;

} // namespace ariadne::driver

#endif // ARIADNE_DRIVER_SESSION_RESULT_HH
