/**
 * @file
 * Declarative description of a multi-scenario sweep: an ordered list
 * of named ScenarioSpec variants compared side by side in one report
 * (scheme / config / scale axes, the §6 figure methodology).
 *
 * The config format extends the scenario format with sections. Lines
 * before the first `variant =` line form the *base* scenario every
 * variant inherits; each `variant = NAME` line starts a section whose
 * `key = value` lines override the base. A variant that declares any
 * `event` line replaces the base program wholesale (programs are
 * traces — merging them would be meaningless). The workload axis
 * (`workload`, `apps`, the `population_*` keys) is per-variant too,
 * so one sweep can compare app mixes or whole synthetic populations
 * side by side (scenarios/sweep_mixes.cfg); a variant that switches
 * to `workload = synthetic` must not inherit a base program, so keep
 * events in the program variants of such sweeps:
 *
 *     sweep = scheme-comparison
 *     scale = 0.0625
 *     seed = 42
 *     fleet = 8
 *     event = warmup
 *     event = repeat 40
 *     event =   switch_next 2s 1s
 *     event = end
 *
 *     variant = zram
 *     scheme = zram
 *
 *     variant = ariadne
 *     scheme = ariadne
 *     scheme.config = EHL-1K-2K-16K
 *
 * Parse errors throw SpecError with the offending file line, exactly
 * like ScenarioSpec.
 */

#ifndef ARIADNE_DRIVER_SWEEP_SPEC_HH
#define ARIADNE_DRIVER_SWEEP_SPEC_HH

#include "driver/scenario_spec.hh"

namespace ariadne::driver
{

/** Ordered list of named scenario variants run side by side. */
struct SweepSpec
{
    std::string name = "sweep";
    /** Variants in declaration order; names are unique. */
    std::vector<ScenarioSpec> variants;

    /** Serialize to the config format; parse(toString()) == *this. */
    std::string toString() const;

    /** Parse the config format; throws SpecError on invalid input. */
    static SweepSpec parse(std::istream &in);

    /** Parse from a string (convenience over the stream overload). */
    static SweepSpec parseString(const std::string &text);

    /** Load and parse a config file; throws SpecError when
     * unreadable. */
    static SweepSpec loadFile(const std::string &path);

    bool operator==(const SweepSpec &o) const;
};

/**
 * Whether @p path/config text looks like a sweep config (contains a
 * top-level `sweep =` or `variant =` line). Lets the CLI pick the
 * right parser without a flag when convenient.
 */
bool looksLikeSweepConfig(std::istream &in);

} // namespace ariadne::driver

#endif // ARIADNE_DRIVER_SWEEP_SPEC_HH
