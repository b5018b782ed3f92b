/**
 * @file
 * Session driver — the MonkeyRunner replacement (§5 methodology).
 *
 * Builds the paper's scenarios on top of a MobileSystem:
 *
 *  - targetRelaunchScenario: launch the target app, use it,
 *    background it, launch the other nine apps in a variant-specific
 *    order (three usage scenarios per target), then relaunch the
 *    target and measure;
 *  - lightUsageScenario: switch between the ten apps with an
 *    intermission gap (Table 2 "light");
 *  - heavyUsageScenario: sequential launches without gaps
 *    (Table 2 "heavy").
 *
 * Every compound scenario bottoms out in MobileSystem's primitive
 * driver ops (cold-launch / execute / background / relaunch / idle),
 * so an attached SystemObserver — trace recording — sees the full
 * op/touch stream regardless of which layer drove it, and a trace
 * replay reproduces these scenarios without re-running them.
 */

#ifndef ARIADNE_SYS_SESSION_HH
#define ARIADNE_SYS_SESSION_HH

#include <unordered_set>

#include "sys/mobile_system.hh"

namespace ariadne
{

/** Scripted multi-app usage scenarios. */
class SessionDriver
{
  public:
    /** @param system The device to drive. */
    explicit SessionDriver(MobileSystem &system) : sys(system) {}

    /**
     * The paper's per-target trace methodology.
     * @param target App to measure.
     * @param variant Background-launch order variant (0, 1, 2, ...).
     * @param use_time Foreground time of the target before switching.
     * @param bg_use_time Foreground time of each background app.
     * @return measured relaunch statistics.
     */
    RelaunchStats targetRelaunchScenario(
        AppId target, unsigned variant,
        Tick use_time = Tick{30} * 1000000000ULL,
        Tick bg_use_time = Tick{8} * 1000000000ULL);

    /**
     * Everything targetRelaunchScenario does *before* the measured
     * relaunch: launch/use/background the target, then the other
     * apps. Lets benches reset analysis logs right before measuring
     * with sys.appRelaunch(target).
     */
    void prepareTargetScenario(
        AppId target, unsigned variant,
        Tick use_time = Tick{30} * 1000000000ULL,
        Tick bg_use_time = Tick{8} * 1000000000ULL);

    /**
     * Prepare pressure: launch every app once (target last-but-one)
     * without measuring. Used by benches that then measure multiple
     * relaunches (Fig. 5, Fig. 14).
     */
    void warmUpAllApps(Tick bg_use_time = Tick{8} * 1000000000ULL);

    /** Default intermission of the light-usage mix (the scenario
     * parser's one-argument `light_usage` form uses it too). */
    static constexpr Tick lightUsageDefaultGap =
        Tick{1} * 1000000000ULL;

    /**
     * Light usage: round-robin relaunches with an intermission gap
     * until @p duration simulated time passes.
     */
    void lightUsageScenario(Tick duration = Tick{60} * 1000000000ULL,
                            Tick gap = lightUsageDefaultGap);

    /** Heavy usage: continuous relaunches without intermission. */
    void heavyUsageScenario(Tick duration = Tick{60} * 1000000000ULL);

    /**
     * Cold-launch @p uid on its first visit, hot-relaunch it
     * otherwise. The measured RelaunchStats are only meaningful for
     * the relaunch case; a cold launch reports zeroed stats with
     * uid == invalidApp so callers can tell the two apart.
     */
    RelaunchStats visit(AppId uid);

    /** Whether @p uid has been launched by this driver. */
    bool
    isLaunched(AppId uid) const
    {
        return launched.contains(uid);
    }

  private:
    MobileSystem &sys;
    std::unordered_set<AppId> launched;
};

} // namespace ariadne

#endif // ARIADNE_SYS_SESSION_HH
