/**
 * @file
 * String-keyed swap-scheme registry.
 *
 * Scheme selection used to be a hard-wired `enum SchemeKind` switch in
 * MobileSystem; the registry replaces it with self-describing entries:
 * every scheme registers a name (`dram`, `swap`, `zram`, `zswap`,
 * `ariadne`), a one-line description, its knob schema and a build
 * factory. Configuration reaches a factory as a SchemeParams bag —
 * a typed key→value map parsed from the namespaced `scheme.<knob>`
 * keys of a scenario config (`scheme = ariadne`,
 * `scheme.zpool_mb = 192`, `scheme.predecomp = off`, ...).
 *
 * Adding a scheme means writing its implementation file — which also
 * defines its SchemeInfo (see e.g. dramOnlySchemeInfo) — and naming
 * that info function in the builtin table of scheme_registry.cc. The
 * registry is deliberately pull-based rather than relying on static
 * initializers: the simulator links as a static library, and an
 * unreferenced translation unit's initializers would silently be
 * dropped, losing the scheme.
 *
 * Errors are reported with SchemeError (a std::runtime_error): the
 * registry is used by the config layer, which must surface bad user
 * input instead of aborting.
 */

#ifndef ARIADNE_SWAP_SCHEME_REGISTRY_HH
#define ARIADNE_SWAP_SCHEME_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "swap/scheme.hh"
#include "workload/app_model.hh"

namespace ariadne
{

/** Invalid scheme selection or knob value (a configuration error). */
class SchemeError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Typed key→value bag of scheme policy knobs. Values are stored as
 * the strings they were configured with and parsed on access, so one
 * bag can carry any scheme's schema; entries are kept in key order,
 * which keeps serialized configs canonical. The typed getters throw
 * SchemeError on malformed values and return the supplied default
 * when the key is absent.
 */
class SchemeParams
{
  public:
    /** Set (or overwrite) knob @p key to the raw text @p value. */
    void set(const std::string &key, std::string value);

    bool empty() const noexcept { return values.empty(); }

    /** Raw text of @p key, or nullptr when absent. */
    const std::string *raw(const std::string &key) const noexcept;

    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** Accepts true/false, on/off, 1/0 (case-insensitive). */
    bool getBool(const std::string &key, bool def) const;

    std::uint64_t getU64(const std::string &key,
                         std::uint64_t def) const;

    /** Capacity knob: the value is mebibytes, the result bytes. */
    std::size_t getMiB(const std::string &key,
                       std::size_t def_bytes) const;

    /** Entries in key order (canonical serialization order). */
    const std::map<std::string, std::string> &
    entries() const noexcept
    {
        return values;
    }

    bool operator==(const SchemeParams &o) const = default;

  private:
    std::map<std::string, std::string> values;
};

/** One tunable knob of a scheme's schema. */
struct SchemeKnob
{
    SchemeKnob(std::string name, std::string type,
               std::string default_value, std::string description,
               std::function<void(const std::string &)> check = {})
        : name(std::move(name)), type(std::move(type)),
          defaultValue(std::move(default_value)),
          description(std::move(description)),
          check(std::move(check))
    {
    }

    /** Knob key as configured (`scheme.<name> = ...`). */
    std::string name;
    /** Value type: "string", "bool", "u64" or "mb". */
    std::string type;
    /** Default shown by `--list-schemes` (display only). */
    std::string defaultValue;
    /** One-line description. */
    std::string description;
    /**
     * Optional value check beyond the type (the grammar of a config
     * string); throws SchemeError on bad values. Runs at validation
     * time, so config errors surface with the offending line instead
     * of deep inside a factory.
     */
    std::function<void(const std::string &value)> check;
};

/** Everything the system layer needs to build a scheme by name. */
struct SchemeInfo
{
    /** Registry key and config-file name (lowercase). */
    std::string key;
    /** Report display name ("DRAM", "ZRAM", "Ariadne", ...). */
    std::string displayName;
    /** One-line description for `--list-schemes`. */
    std::string description;
    /** Knob schema; params are validated against it. */
    std::vector<SchemeKnob> knobs;
    /**
     * Ideal-DRAM baseline: the system sizes DRAM so the scheme never
     * reclaims (the paper's optimistic bound) instead of using the
     * configured budget.
     */
    bool unboundedDram = false;
    /**
     * Build the scheme. @p params has been validated against the
     * schema; capacity knobs are given at paper scale and the factory
     * multiplies them by @p scale (the footprint scale of the run).
     * @p apps are the session's app profiles, which a scheme may
     * derive per-app state from (Ariadne seeds its hot-set sizes).
     */
    std::function<std::unique_ptr<SwapScheme>(
        SwapContext ctx, const SchemeParams &params, double scale,
        const std::vector<AppProfile> &apps)>
        build;
};

/**
 * The process-wide scheme registry. Populated with the five builtin
 * schemes on first access and immutable afterwards, so concurrent
 * fleet workers may query it freely.
 */
class SchemeRegistry
{
  public:
    /** The registry (builtins registered on first call). */
    static const SchemeRegistry &instance();

    /** Info for @p key, or nullptr when unknown. */
    const SchemeInfo *find(const std::string &key) const noexcept;

    /** Info for @p key; throws SchemeError listing the valid names. */
    const SchemeInfo &at(const std::string &key) const;

    /** Registered keys in sorted order. */
    std::vector<std::string> names() const;

    /** Sorted keys joined with ", " (for error messages). */
    std::string namesJoined() const;

    /** Infos in key order (for `--list-schemes`). */
    std::vector<const SchemeInfo *> infos() const;

    /**
     * Check @p params against @p key's schema: every knob must exist
     * and its value must parse at the declared type. Throws
     * SchemeError naming the offending knob (and, for unknown knobs,
     * the scheme's valid ones).
     */
    void validate(const std::string &key,
                  const SchemeParams &params) const;

    /** validate() then build the scheme for a session of @p apps. */
    std::unique_ptr<SwapScheme>
    build(const std::string &key, SwapContext ctx,
          const SchemeParams &params, double scale,
          const std::vector<AppProfile> &apps) const;

  private:
    SchemeRegistry();

    /** Register @p info; throws SchemeError on duplicate keys. */
    void add(SchemeInfo info);

    std::map<std::string, SchemeInfo> schemes;
};

/** Scale a paper-scale byte capacity by the run's footprint scale. */
std::size_t scaledBytes(std::size_t bytes, double scale) noexcept;

} // namespace ariadne

#endif // ARIADNE_SWAP_SCHEME_REGISTRY_HH
