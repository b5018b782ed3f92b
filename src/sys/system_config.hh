/**
 * @file
 * System-level configuration (the paper's Table 4 platform plus
 * scheme selection).
 *
 * The swap scheme is selected by registry name (`dram`, `swap`,
 * `zram`, `zswap`, `ariadne`; see swap/scheme_registry.hh) and
 * configured through a SchemeParams knob bag, so adding a scheme or a
 * policy knob never touches this struct. All capacities are given at
 * paper scale and multiplied by `scale` internally, so a bench can
 * run at 1/8 footprint and reconstruct full-scale latencies (see
 * RelaunchStats::fullScaleNs).
 */

#ifndef ARIADNE_SYS_SYSTEM_CONFIG_HH
#define ARIADNE_SYS_SYSTEM_CONFIG_HH

#include <string>

#include "sim/energy_model.hh"
#include "sim/timing_model.hh"
#include "swap/scheme_registry.hh"

namespace ariadne
{

/** Full system configuration. */
struct SystemConfig
{
    /** Footprint scale; 1.0 = the paper's volumes. */
    double scale = 0.125;

    /** DRAM budget for anonymous pages (paper scale). A Pixel 7 has
     * 12 GB total; apps' anonymous data competes for roughly this
     * much after the OS, file cache, GPU and zpool take theirs. */
    std::size_t dramBytes = std::size_t{2560} * 1024 * 1024;

    /** Watermarks (fractions of the anon budget). */
    double lowWatermark = 0.02;
    double highWatermark = 0.05;

    /** Registered name of the swap scheme to run. */
    std::string scheme = "zram";

    /** Scheme policy knobs, validated against the scheme's schema
     * (`scheme.<knob>` keys of a scenario config). */
    SchemeParams schemeParams;

    /** File pages written back per anonymous page allocated; models
     * the file-cache share of kswapd work that exists under every
     * scheme (the DRAM bars of Fig. 3). */
    double fileWritebackPerAnonAlloc = 0.25;

    TimingParams timing;
    EnergyParams energy;

    /** Deterministic seed for the workload instances. */
    std::uint64_t seed = 42;

    /** Per-page application-side touch cost (read/first-use work). */
    Tick pageTouchNs = 1500;
};

} // namespace ariadne

#endif // ARIADNE_SYS_SYSTEM_CONFIG_HH
