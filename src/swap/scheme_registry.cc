#include "swap/scheme_registry.hh"

#include <algorithm>
#include <cctype>

#include "core/ariadne.hh"
#include "sim/log.hh"
#include "sim/parse_count.hh"
#include "swap/dram_only.hh"
#include "swap/flash_swap.hh"
#include "swap/zram.hh"

namespace ariadne
{

namespace
{

std::string
lowered(const std::string &s)
{
    std::string t = s;
    std::transform(t.begin(), t.end(), t.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return t;
}

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const std::string &expected)
{
    throw SchemeError("invalid value '" + value + "' for scheme knob '" +
                      key + "' (expected " + expected + ")");
}

} // namespace

// --- SchemeParams ----------------------------------------------------

void
SchemeParams::set(const std::string &key, std::string value)
{
    values[key] = std::move(value);
}

const std::string *
SchemeParams::raw(const std::string &key) const noexcept
{
    auto it = values.find(key);
    return it == values.end() ? nullptr : &it->second;
}

std::string
SchemeParams::getString(const std::string &key,
                        const std::string &def) const
{
    const std::string *v = raw(key);
    return v ? *v : def;
}

bool
SchemeParams::getBool(const std::string &key, bool def) const
{
    const std::string *v = raw(key);
    if (!v)
        return def;
    std::string t = lowered(*v);
    if (t == "true" || t == "on" || t == "1")
        return true;
    if (t == "false" || t == "off" || t == "0")
        return false;
    badValue(key, *v, "true|false");
}

std::uint64_t
SchemeParams::getU64(const std::string &key, std::uint64_t def) const
{
    const std::string *v = raw(key);
    if (!v)
        return def;
    std::uint64_t n = 0;
    std::errc ec = parseCount(*v, n);
    if (ec == std::errc::result_out_of_range)
        badValue(key, *v, "an integer within 64 bits");
    if (ec != std::errc())
        badValue(key, *v, "a non-negative integer");
    return n;
}

std::size_t
SchemeParams::getMiB(const std::string &key,
                     std::size_t def_bytes) const
{
    if (!raw(key))
        return def_bytes;
    std::uint64_t mib = getU64(key, 0);
    if (mib > (std::uint64_t{1} << 40))
        badValue(key, *raw(key), "a capacity below 2^40 MiB");
    return static_cast<std::size_t>(mib) << 20;
}

// --- Helpers shared by the factories ---------------------------------

std::size_t
scaledBytes(std::size_t bytes, double scale) noexcept
{
    return static_cast<std::size_t>(static_cast<double>(bytes) * scale);
}

// --- SchemeRegistry --------------------------------------------------

const SchemeRegistry &
SchemeRegistry::instance()
{
    static const SchemeRegistry registry;
    return registry;
}

SchemeRegistry::SchemeRegistry()
{
    // The builtin table. Each entry lives next to its scheme's
    // implementation; adding a scheme is that file plus one line here
    // (static-initializer self-registration would be dropped by the
    // linker for translation units nothing else references).
    add(dramOnlySchemeInfo());
    add(flashSwapSchemeInfo());
    add(zramSchemeInfo());
    add(zswapSchemeInfo());
    add(ariadneSchemeInfo());
}

void
SchemeRegistry::add(SchemeInfo info)
{
    fatalIf(info.key.empty() || !info.build,
            "scheme registration needs a key and a build factory");
    if (!schemes.emplace(info.key, info).second)
        throw SchemeError("duplicate scheme registration '" +
                          info.key + "'");
}

const SchemeInfo *
SchemeRegistry::find(const std::string &key) const noexcept
{
    auto it = schemes.find(key);
    return it == schemes.end() ? nullptr : &it->second;
}

const SchemeInfo &
SchemeRegistry::at(const std::string &key) const
{
    const SchemeInfo *info = find(key);
    if (!info)
        throw SchemeError("unknown scheme '" + key + "' (valid: " +
                          namesJoined() + ")");
    return *info;
}

std::vector<std::string>
SchemeRegistry::names() const
{
    std::vector<std::string> keys;
    keys.reserve(schemes.size());
    for (const auto &[key, info] : schemes)
        keys.push_back(key);
    return keys;
}

std::string
SchemeRegistry::namesJoined() const
{
    std::string joined;
    for (const auto &[key, info] : schemes) {
        if (!joined.empty())
            joined += ", ";
        joined += key;
    }
    return joined;
}

std::vector<const SchemeInfo *>
SchemeRegistry::infos() const
{
    std::vector<const SchemeInfo *> out;
    out.reserve(schemes.size());
    for (const auto &[key, info] : schemes)
        out.push_back(&info);
    return out;
}

void
SchemeRegistry::validate(const std::string &key,
                         const SchemeParams &params) const
{
    const SchemeInfo &info = at(key);
    for (const auto &[knob_key, value] : params.entries()) {
        auto it = std::find_if(info.knobs.begin(), info.knobs.end(),
                               [&](const SchemeKnob &k) {
                                   return k.name == knob_key;
                               });
        if (it == info.knobs.end()) {
            std::string valid;
            for (const SchemeKnob &k : info.knobs) {
                if (!valid.empty())
                    valid += ", ";
                valid += k.name;
            }
            throw SchemeError(
                "scheme '" + key + "' has no knob '" + knob_key +
                "'" +
                (valid.empty() ? " (it takes no knobs)"
                               : " (valid knobs: " + valid + ")"));
        }
        // Probe the typed parse so malformed values fail here, with
        // the knob named, rather than deep inside a factory.
        if (it->type == "bool")
            params.getBool(knob_key, false);
        else if (it->type == "u64")
            params.getU64(knob_key, 0);
        else if (it->type == "mb")
            params.getMiB(knob_key, 0);
        else if (it->type != "string")
            fatal("scheme '" + key + "' declares knob '" + knob_key +
                  "' with unknown type '" + it->type + "'");
        if (it->check)
            it->check(value);
    }
}

std::unique_ptr<SwapScheme>
SchemeRegistry::build(const std::string &key, SwapContext ctx,
                      const SchemeParams &params, double scale,
                      const std::vector<AppProfile> &apps) const
{
    const SchemeInfo &info = at(key);
    validate(key, params);
    return info.build(ctx, params, scale, apps);
}

} // namespace ariadne
