#include "driver/scenario_spec.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "driver/json_writer.hh"
#include "sim/parse_count.hh"
#include "sim/rng.hh"
#include "swap/scheme_registry.hh"
#include "sys/session.hh"
#include "workload/apps.hh"

namespace ariadne::driver
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

std::vector<std::string>
splitWs(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream in(s);
    std::string tok;
    while (in >> tok)
        out.push_back(tok);
    return out;
}

[[noreturn]] void
bad(std::size_t line, const std::string &msg)
{
    throw SpecError("scenario config line " + std::to_string(line) +
                    ": " + msg);
}

std::uint64_t
parseU64(const std::string &text, std::size_t line,
         const std::string &what)
{
    std::uint64_t v = 0;
    std::errc ec = parseCount(text, v);
    if (ec == std::errc::result_out_of_range)
        bad(line, what + " out of range: '" + text + "'");
    if (ec != std::errc())
        bad(line, "invalid " + what + " '" + text + "'");
    return v;
}

double
parseDouble(const std::string &text, std::size_t line,
            const std::string &what)
{
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
        bad(line, "invalid " + what + " '" + text + "'");
    return v;
}

/** Names of the standard app profiles, for validation. */
std::vector<std::string>
standardAppNames()
{
    std::vector<std::string> names;
    for (const auto &p : standardApps())
        names.push_back(p.name);
    return names;
}

void
requireKnownApp(const std::string &name,
                const std::vector<std::string> &known, std::size_t line)
{
    if (std::find(known.begin(), known.end(), name) == known.end())
        bad(line, "unknown app '" + name + "'");
}

void
eventToString(std::ostream &os, const Event &ev, unsigned depth)
{
    os << "event = " << std::string(depth * 2, ' ');
    switch (ev.kind) {
      case Event::Kind::Launch:
        os << "launch " << ev.app;
        break;
      case Event::Kind::Execute:
        os << "execute " << ev.app << " " << formatDuration(ev.duration);
        break;
      case Event::Kind::Background:
        os << "background " << ev.app;
        break;
      case Event::Kind::Relaunch:
        os << "relaunch " << ev.app;
        break;
      case Event::Kind::Idle:
        os << "idle " << formatDuration(ev.duration);
        break;
      case Event::Kind::Warmup:
        os << "warmup";
        break;
      case Event::Kind::SwitchNext:
        os << "switch_next " << formatDuration(ev.duration) << " "
           << formatDuration(ev.gap);
        break;
      case Event::Kind::TargetScenario:
        os << "target_scenario " << ev.app << " " << ev.variant;
        break;
      case Event::Kind::PrepareTarget:
        os << "prepare_target " << ev.app << " " << ev.variant;
        break;
      case Event::Kind::LightUsage:
        os << "light_usage " << formatDuration(ev.duration) << " "
           << formatDuration(ev.gap);
        break;
      case Event::Kind::HeavyUsage:
        os << "heavy_usage " << formatDuration(ev.duration);
        break;
      case Event::Kind::Custom:
        // No config syntax; the rendered form is informational and
        // deliberately rejected by the parser.
        os << "custom " << ev.hook;
        break;
      case Event::Kind::Repeat:
        os << "repeat " << ev.count << "\n";
        for (const auto &sub : ev.body)
            eventToString(os, sub, depth + 1);
        os << "event = " << std::string(depth * 2, ' ') << "end";
        break;
    }
    os << "\n";
}

} // namespace

Event
Event::launch(std::string app)
{
    Event ev;
    ev.kind = Kind::Launch;
    ev.app = std::move(app);
    return ev;
}

Event
Event::execute(std::string app, Tick duration)
{
    Event ev;
    ev.kind = Kind::Execute;
    ev.app = std::move(app);
    ev.duration = duration;
    return ev;
}

Event
Event::background(std::string app)
{
    Event ev;
    ev.kind = Kind::Background;
    ev.app = std::move(app);
    return ev;
}

Event
Event::relaunch(std::string app)
{
    Event ev;
    ev.kind = Kind::Relaunch;
    ev.app = std::move(app);
    return ev;
}

Event
Event::idle(Tick duration)
{
    Event ev;
    ev.kind = Kind::Idle;
    ev.duration = duration;
    return ev;
}

Event
Event::warmup()
{
    Event ev;
    ev.kind = Kind::Warmup;
    return ev;
}

Event
Event::switchNext(Tick use, Tick gap)
{
    Event ev;
    ev.kind = Kind::SwitchNext;
    ev.duration = use;
    ev.gap = gap;
    return ev;
}

Event
Event::targetScenario(std::string app, unsigned variant)
{
    Event ev;
    ev.kind = Kind::TargetScenario;
    ev.app = std::move(app);
    ev.variant = variant;
    return ev;
}

Event
Event::prepareTarget(std::string app, unsigned variant)
{
    Event ev;
    ev.kind = Kind::PrepareTarget;
    ev.app = std::move(app);
    ev.variant = variant;
    return ev;
}

Event
Event::lightUsage(Tick duration, Tick gap)
{
    Event ev;
    ev.kind = Kind::LightUsage;
    ev.duration = duration;
    ev.gap = gap;
    return ev;
}

Event
Event::heavyUsage(Tick duration)
{
    Event ev;
    ev.kind = Kind::HeavyUsage;
    ev.duration = duration;
    return ev;
}

Event
Event::repeat(std::size_t count, std::vector<Event> body)
{
    Event ev;
    ev.kind = Kind::Repeat;
    ev.count = count;
    ev.body = std::move(body);
    return ev;
}

Event
Event::custom(std::size_t hook_index)
{
    Event ev;
    ev.kind = Kind::Custom;
    ev.hook = hook_index;
    return ev;
}

WorkloadKind
parseWorkloadKind(const std::string &text)
{
    std::string t = lower(text);
    if (t == "profiles")
        return WorkloadKind::Profiles;
    if (t == "trace")
        return WorkloadKind::Trace;
    if (t == "synthetic")
        return WorkloadKind::Synthetic;
    throw SpecError("unknown workload '" + text +
                    "' (profiles|trace|synthetic)");
}

std::string
parseSchemeName(const std::string &text)
{
    std::string t = lower(text);
    if (!SchemeRegistry::instance().find(t))
        throw SpecError("unknown scheme '" + text + "' (valid: " +
                        SchemeRegistry::instance().namesJoined() +
                        ")");
    return t;
}

Tick
parseDuration(const std::string &text)
{
    std::size_t digits =
        std::min(text.find_first_not_of("0123456789"), text.size());
    std::uint64_t n = 0;
    std::errc ec =
        parseCount(std::string_view(text).substr(0, digits), n);
    if (ec == std::errc::result_out_of_range)
        throw SpecError("duration out of range: '" + text + "'");
    if (ec != std::errc())
        throw SpecError("invalid duration '" + text + "'");
    std::string suffix = text.substr(digits);
    std::uint64_t mult;
    if (suffix.empty() || suffix == "ns")
        mult = 1;
    else if (suffix == "us")
        mult = 1000ULL;
    else if (suffix == "ms")
        mult = 1000000ULL;
    else if (suffix == "s")
        mult = 1000000000ULL;
    else
        throw SpecError("invalid duration suffix '" + suffix +
                        "' in '" + text + "' (ns|us|ms|s)");
    if (n > std::numeric_limits<Tick>::max() / mult)
        throw SpecError("duration out of range: '" + text + "'");
    return n * mult;
}

std::string
formatDuration(Tick t)
{
    if (t % 1000000000ULL == 0)
        return std::to_string(t / 1000000000ULL) + "s";
    if (t % 1000000ULL == 0)
        return std::to_string(t / 1000000ULL) + "ms";
    if (t % 1000ULL == 0)
        return std::to_string(t / 1000ULL) + "us";
    return std::to_string(t) + "ns";
}

std::uint64_t
ScenarioSpec::sessionSeed(std::size_t session_index) const noexcept
{
    // Session 0 runs the base seed itself, so a fleet of one exactly
    // reproduces a plain SystemConfig run with that seed (the legacy
    // single-device benches). Later sessions use a SplitMix-style
    // derivation that decorrelates neighbours; every seed depends only
    // on (base seed, index), never on scheduling, which is what makes
    // fleet aggregates thread-invariant.
    if (session_index == 0)
        return seed;
    return mix64(seed ^ mix64(0x5e551011ULL + session_index));
}

SystemConfig
ScenarioSpec::systemConfig(std::size_t session_index) const
{
    SystemConfig cfg;
    cfg.scale = scale;
    cfg.scheme = scheme;
    cfg.schemeParams = params;
    cfg.seed = sessionSeed(session_index);
    return cfg;
}

std::vector<AppProfile>
ScenarioSpec::appProfiles() const
{
    if (apps.empty())
        return standardApps();
    std::vector<AppProfile> profiles;
    for (const auto &name : apps)
        profiles.push_back(standardApp(name));
    return profiles;
}

std::string
ScenarioSpec::toString() const
{
    std::ostringstream os;
    os << "name = " << name << "\n";
    if (workload == WorkloadKind::Trace) {
        // A replay spec carries the trace reference plus (at most) a
        // what-if scheme override; everything else lives in the
        // scenario embedded in the trace.
        os << "workload = trace\n";
        os << "trace = " << tracePath << "\n";
        if (!replayScheme.empty())
            os << "scheme = " << replayScheme << "\n";
        for (const auto &[knob, value] : replayParams.entries())
            os << "scheme." << knob << " = " << value << "\n";
        return os.str();
    }
    os << "scheme = " << scheme << "\n";
    for (const auto &[knob, value] : params.entries())
        os << "scheme." << knob << " = " << value << "\n";
    os << "scale = " << JsonWriter::formatDouble(scale) << "\n";
    os << "seed = " << seed << "\n";
    os << "fleet = " << fleet << "\n";
    if (percentiles != report::PercentileMode::Exact) {
        // Sketch mode spells out its buffer size, so a round-trip
        // never depends on the struct's default.
        os << "percentiles = " << report::percentileModeName(percentiles)
           << "\n";
        os << "sketch_k = " << sketchK << "\n";
    }
    if (!apps.empty()) {
        os << "apps = ";
        for (std::size_t i = 0; i < apps.size(); ++i)
            os << (i ? ", " : "") << apps[i];
        os << "\n";
    }
    if (workload == WorkloadKind::Synthetic) {
        // Canonical form spells out every population key, so a
        // round-trip never depends on the struct's defaults.
        os << "workload = synthetic\n";
        os << "population_apps_per_user = " << population.appsPerUser
           << "\n";
        os << "population_footprint_spread = "
           << JsonWriter::formatDouble(population.footprintSpread)
           << "\n";
        os << "population_light_share = "
           << JsonWriter::formatDouble(population.lightShare) << "\n";
        os << "population_heavy_share = "
           << JsonWriter::formatDouble(population.heavyShare) << "\n";
        os << "population_switches = " << population.switches << "\n";
        os << "population_use = " << formatDuration(population.useTime)
           << "\n";
        os << "population_gap = " << formatDuration(population.gap)
           << "\n";
        return os.str();
    }
    for (const auto &ev : program)
        eventToString(os, ev, 0);
    return os.str();
}

ScenarioSpec
ScenarioSpec::parseString(const std::string &text)
{
    std::istringstream in(text);
    return parse(in);
}

ScenarioSpec
ScenarioSpec::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw SpecError("cannot open scenario config: " + path);
    return parse(in);
}

/**
 * Parser state. Lives behind a pimpl so the header stays light; the
 * event stack holds pointers into spec.program's nested body vectors,
 * which is safe because only the innermost (stack top) vector ever
 * grows (see the repeat handling below).
 */
struct SpecParser::Impl
{
    ScenarioSpec spec;
    std::vector<std::string> knownApps = standardAppNames();
    /** Innermost target for parsed events; grows on `repeat`. */
    std::vector<std::vector<Event> *> stack{&spec.program};
    /** Line numbers of open repeat blocks, for the error message. */
    std::vector<std::size_t> repeatLines;
    /** App names referenced by events, validated in finish() so an
     * `apps = ...` line may follow the events that use it. */
    std::vector<std::pair<std::string, std::size_t>> referencedApps;
    /** First line each key appeared on; finish() uses it to diagnose
     * key/workload combinations independent of line order. */
    std::map<std::string, std::size_t> seenKeys;
    /** Last line each `scheme.<knob>` key appeared on; knob names and
     * value types are validated in finish() against the *final*
     * scheme, so a `scheme = ...` line may follow its knobs. */
    std::map<std::string, std::size_t> paramLines;
    bool anyEvents = false;
    std::size_t firstEventLine = 0;

    void feed(const std::string &raw, std::size_t lineno);
    void validateScheme();
    void validateWorkload();
};

SpecParser::SpecParser() : impl(std::make_unique<Impl>()) {}
SpecParser::~SpecParser() = default;
SpecParser::SpecParser(SpecParser &&) noexcept = default;
SpecParser &SpecParser::operator=(SpecParser &&) noexcept = default;

void
SpecParser::feed(const std::string &raw_line, std::size_t lineno)
{
    impl->feed(raw_line, lineno);
}

bool
SpecParser::sawEvents() const noexcept
{
    return impl->anyEvents;
}

ScenarioSpec
SpecParser::finish()
{
    if (impl->stack.size() > 1)
        bad(impl->repeatLines.back(), "'repeat' block never closed");
    for (const auto &[name, line] : impl->referencedApps)
        requireKnownApp(name,
                        impl->spec.apps.empty() ? impl->knownApps
                                                : impl->spec.apps,
                        line);
    impl->validateWorkload();
    impl->validateScheme();
    return std::move(impl->spec);
}

/**
 * Resolve the scheme axis: check every knob (name and value type)
 * against the final scheme's schema. Runs in finish() so `scheme =
 * ...` may appear after the knobs it governs (sweep variants rely on
 * this when they override the base scheme). For trace replays the
 * knobs have already moved to the what-if override (see
 * validateWorkload); an override with an explicit scheme is validated
 * here, one that only tweaks knobs of the recorded scheme is
 * validated by the FleetRunner once the recorded scheme is known.
 */
void
SpecParser::Impl::validateScheme()
{
    const SchemeRegistry &registry = SchemeRegistry::instance();
    bool is_trace = spec.workload == WorkloadKind::Trace;
    const std::string &scheme_key =
        is_trace ? spec.replayScheme : spec.scheme;
    const SchemeParams &bag = is_trace ? spec.replayParams : spec.params;
    if (scheme_key.empty())
        return; // knob-only what-if override; FleetRunner validates
    for (const auto &[knob, value] : bag.entries()) {
        auto line_it = paramLines.find(knob);
        std::size_t line =
            line_it == paramLines.end() ? 0 : line_it->second;
        SchemeParams probe;
        probe.set(knob, value);
        try {
            registry.validate(scheme_key, probe);
        } catch (const SchemeError &e) {
            bad(line, e.what());
        }
    }
}

/**
 * Cross-key validation of the workload axis. Runs in finish() so the
 * `workload = ...` line may appear anywhere relative to the keys it
 * governs (sweep variants rely on this when they override the base
 * workload).
 */
void
SpecParser::Impl::validateWorkload()
{
    auto line_of = [&](const std::string &key) {
        auto it = seenKeys.find(key);
        return it == seenKeys.end() ? std::size_t{0} : it->second;
    };
    auto is_population_key = [](const std::string &key) {
        return key.rfind("population_", 0) == 0;
    };

    if (seenKeys.count("sketch_k") &&
        spec.percentiles != report::PercentileMode::Sketch)
        bad(line_of("sketch_k"),
            "'sketch_k' requires percentiles = sketch");

    if (spec.workload == WorkloadKind::Trace) {
        if (spec.tracePath.empty())
            bad(line_of("workload"),
                "workload = trace needs a 'trace = FILE' line");
        // A replay takes its workload identity — scale, seed, fleet,
        // apps, program — from the scenario recorded in the trace;
        // stray keys would be silently ignored, so reject them. The
        // scheme axis is the exception: `scheme` / `scheme.*` lines
        // form a what-if override that re-runs the recorded workload
        // under a different scheme.
        for (const auto &[key, line] : seenKeys)
            if (key != "name" && key != "workload" &&
                key != "trace" && key != "scheme" &&
                key.rfind("scheme.", 0) != 0)
                bad(line, "key '" + key + "' is not allowed with "
                          "workload = trace (the replay takes its "
                          "scale, seed, fleet, apps and program from "
                          "the recorded scenario; only 'name' and a "
                          "'scheme' what-if override may be set)");
        if (anyEvents)
            bad(firstEventLine,
                "event program is not allowed with workload = trace");
        // Relocate the scheme axis into the what-if override slots;
        // the spec's own scheme/params stay at their defaults so the
        // recorded scenario's axes are adopted untouched.
        if (seenKeys.count("scheme"))
            spec.replayScheme = spec.scheme;
        spec.replayParams = spec.params;
        spec.scheme = "zram";
        spec.params = SchemeParams{};
        return;
    }
    if (seenKeys.count("trace"))
        bad(line_of("trace"), "'trace' requires workload = trace");

    if (spec.workload == WorkloadKind::Synthetic) {
        if (anyEvents)
            bad(firstEventLine,
                "event program is not allowed with workload = "
                "synthetic (sessions generate their own programs from "
                "the population_* keys; note sweep variants inherit "
                "the base program unless they declare their own)");
        if (spec.population.lightShare + spec.population.heavyShare >
            1.0)
            throw SpecError(
                "scenario config: population_light_share + "
                "population_heavy_share must not exceed 1");
    } else {
        for (const auto &[key, line] : seenKeys)
            if (is_population_key(key))
                bad(line,
                    "'" + key + "' requires workload = synthetic");
    }
}

ConfigLine
lexConfigLine(const std::string &raw)
{
    ConfigLine out;
    std::string line = raw;
    if (auto hash = line.find('#'); hash != std::string::npos)
        line = line.substr(0, hash);
    out.text = trim(line);
    if (out.text.empty())
        return out;
    out.blank = false;
    auto eq = out.text.find('=');
    if (eq == std::string::npos)
        return out;
    out.hasEquals = true;
    out.key = trim(out.text.substr(0, eq));
    out.value = trim(out.text.substr(eq + 1));
    return out;
}

void
SpecParser::Impl::feed(const std::string &raw, std::size_t lineno)
{
    ScenarioSpec &spec = this->spec;

    ConfigLine lexed = lexConfigLine(raw);
    if (lexed.blank)
        return;
    if (!lexed.hasEquals)
        bad(lineno,
            "expected 'key = value', got '" + lexed.text + "'");
    const std::string &key = lexed.key;
    const std::string &value = lexed.value;
    if (key.empty())
        bad(lineno, "empty key");
    if (value.empty())
        bad(lineno, "empty value for key '" + key + "'");
    seenKeys.emplace(key, lineno);

    {
        if (key == "name") {
            spec.name = value;
        } else if (key == "scheme") {
            try {
                spec.scheme = parseSchemeName(value);
            } catch (const SpecError &e) {
                bad(lineno, e.what());
            }
        } else if (key.rfind("scheme.", 0) == 0) {
            std::string knob = key.substr(7);
            if (knob.empty())
                bad(lineno, "empty scheme knob name in '" + key + "'");
            // Knob names and value types are checked against the
            // final scheme's schema in finish(), so this line may
            // precede (or follow) the `scheme = ...` it configures.
            spec.params.set(knob, value);
            paramLines[knob] = lineno;
        } else if (key == "scale") {
            char *end = nullptr;
            double v = std::strtod(value.c_str(), &end);
            if (end != value.c_str() + value.size() || !(v > 0.0) ||
                v > 1.0)
                bad(lineno,
                    "scale must be a number in (0, 1], got '" + value +
                        "'");
            spec.scale = v;
        } else if (key == "seed") {
            spec.seed = parseU64(value, lineno, "seed");
        } else if (key == "fleet") {
            spec.fleet = parseU64(value, lineno, "fleet size");
            if (spec.fleet == 0)
                bad(lineno, "fleet size must be >= 1");
        } else if (key == "percentiles") {
            auto mode = report::parsePercentileModeName(value);
            if (!mode)
                bad(lineno, "unknown percentiles mode '" + value +
                                "' (exact|sketch)");
            spec.percentiles = *mode;
        } else if (key == "sketch_k") {
            std::uint64_t v = parseU64(value, lineno, "sketch_k");
            if (v < report::PercentileSketch::minK)
                bad(lineno, "sketch_k must be >= " +
                                std::to_string(
                                    report::PercentileSketch::minK) +
                                ", got '" + value + "'");
            spec.sketchK = v;
        } else if (key == "apps") {
            // Like every other key, a later `apps` line overrides an
            // earlier one (sweep variants rely on this to replace the
            // base mix).
            if (lower(value) == "standard") {
                spec.apps.clear();
            } else {
                std::vector<std::string> list;
                std::string rest = value;
                while (!rest.empty()) {
                    std::string tok;
                    auto comma = rest.find(',');
                    if (comma == std::string::npos) {
                        tok = trim(rest);
                        rest.clear();
                    } else {
                        tok = trim(rest.substr(0, comma));
                        rest = rest.substr(comma + 1);
                    }
                    if (tok.empty())
                        bad(lineno, "empty app name in list");
                    requireKnownApp(tok, knownApps, lineno);
                    list.push_back(tok);
                }
                if (list.empty())
                    bad(lineno, "empty app list");
                spec.apps = std::move(list);
            }
        } else if (key == "workload") {
            try {
                spec.workload = parseWorkloadKind(value);
            } catch (const SpecError &e) {
                bad(lineno, e.what());
            }
        } else if (key == "trace") {
            spec.tracePath = value;
        } else if (key == "population_apps_per_user") {
            spec.population.appsPerUser =
                parseU64(value, lineno, "population_apps_per_user");
        } else if (key == "population_footprint_spread") {
            double v = parseDouble(value, lineno, key);
            // NaN-safe form: NaN fails every comparison, so demand
            // the in-range predicate rather than rejecting out-of-
            // range ones.
            if (!(v >= 0.0 && v < 1.0))
                bad(lineno, "population_footprint_spread must be in "
                            "[0, 1), got '" + value + "'");
            spec.population.footprintSpread = v;
        } else if (key == "population_light_share" ||
                   key == "population_heavy_share") {
            double v = parseDouble(value, lineno, key);
            if (!(v >= 0.0 && v <= 1.0))
                bad(lineno,
                    key + " must be in [0, 1], got '" + value + "'");
            if (key == "population_light_share")
                spec.population.lightShare = v;
            else
                spec.population.heavyShare = v;
        } else if (key == "population_switches") {
            spec.population.switches =
                parseU64(value, lineno, "population_switches");
        } else if (key == "population_use" ||
                   key == "population_gap") {
            Tick v = 0;
            try {
                v = parseDuration(value);
            } catch (const SpecError &e) {
                bad(lineno, e.what());
            }
            if (key == "population_use")
                spec.population.useTime = v;
            else
                spec.population.gap = v;
        } else if (key == "event") {
            anyEvents = true;
            if (firstEventLine == 0)
                firstEventLine = lineno;
            std::vector<std::string> tok = splitWs(value);
            const std::string &op = tok[0];
            auto expect_args = [&](std::size_t n) {
                if (tok.size() != n + 1)
                    bad(lineno, "op '" + op + "' takes " +
                                    std::to_string(n) +
                                    " argument(s), got " +
                                    std::to_string(tok.size() - 1));
            };
            auto parse_dur = [&](const std::string &text) -> Tick {
                try {
                    return parseDuration(text);
                } catch (const SpecError &e) {
                    bad(lineno, e.what());
                }
            };
            auto app_arg = [&](const std::string &name) {
                referencedApps.emplace_back(name, lineno);
                return name;
            };
            auto variant_arg = [&](const std::string &text) {
                auto variant = parseU64(text, lineno, "scenario variant");
                if (variant > std::numeric_limits<unsigned>::max())
                    bad(lineno, "scenario variant out of range: '" +
                                    text + "'");
                return static_cast<unsigned>(variant);
            };

            if (op == "launch") {
                expect_args(1);
                stack.back()->push_back(Event::launch(app_arg(tok[1])));
            } else if (op == "execute") {
                expect_args(2);
                stack.back()->push_back(
                    Event::execute(app_arg(tok[1]), parse_dur(tok[2])));
            } else if (op == "background") {
                expect_args(1);
                stack.back()->push_back(
                    Event::background(app_arg(tok[1])));
            } else if (op == "relaunch") {
                expect_args(1);
                stack.back()->push_back(
                    Event::relaunch(app_arg(tok[1])));
            } else if (op == "idle") {
                expect_args(1);
                stack.back()->push_back(Event::idle(parse_dur(tok[1])));
            } else if (op == "warmup") {
                expect_args(0);
                stack.back()->push_back(Event::warmup());
            } else if (op == "switch_next") {
                expect_args(2);
                stack.back()->push_back(Event::switchNext(
                    parse_dur(tok[1]), parse_dur(tok[2])));
            } else if (op == "target_scenario") {
                expect_args(2);
                stack.back()->push_back(Event::targetScenario(
                    app_arg(tok[1]), variant_arg(tok[2])));
            } else if (op == "prepare_target") {
                expect_args(2);
                stack.back()->push_back(Event::prepareTarget(
                    app_arg(tok[1]), variant_arg(tok[2])));
            } else if (op == "light_usage") {
                // Gap is optional: `light_usage 60s` uses the
                // driver's default intermission.
                if (tok.size() != 2 && tok.size() != 3)
                    bad(lineno, "op 'light_usage' takes 1 or 2 "
                                "argument(s), got " +
                                    std::to_string(tok.size() - 1));
                Tick gap = tok.size() == 3
                               ? parse_dur(tok[2])
                               : SessionDriver::lightUsageDefaultGap;
                stack.back()->push_back(
                    Event::lightUsage(parse_dur(tok[1]), gap));
            } else if (op == "heavy_usage") {
                expect_args(1);
                stack.back()->push_back(
                    Event::heavyUsage(parse_dur(tok[1])));
            } else if (op == "custom") {
                bad(lineno, "op 'custom' is programmatic-only (bench "
                            "hooks have no config syntax)");
            } else if (op == "repeat") {
                expect_args(1);
                auto count = parseU64(tok[1], lineno, "repeat count");
                if (count == 0)
                    bad(lineno, "repeat count must be >= 1");
                stack.back()->push_back(Event::repeat(count, {}));
                stack.push_back(&stack.back()->back().body);
                repeatLines.push_back(lineno);
            } else if (op == "end") {
                expect_args(0);
                if (stack.size() == 1)
                    bad(lineno, "'end' without a matching 'repeat'");
                stack.pop_back();
                repeatLines.pop_back();
            } else {
                bad(lineno, "unknown event op '" + op + "'");
            }
        } else {
            bad(lineno, "unknown key '" + key + "'");
        }
    }
}

ScenarioSpec
ScenarioSpec::parse(std::istream &in)
{
    SpecParser parser;
    std::string raw;
    std::size_t lineno = 0;
    while (std::getline(in, raw))
        parser.feed(raw, ++lineno);
    return parser.finish();
}

} // namespace ariadne::driver
