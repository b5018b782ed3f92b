#include "driver/sweep_spec.hh"

#include <fstream>
#include <sstream>

namespace ariadne::driver
{

namespace
{

/** One raw config line with its original file line number. */
struct Line
{
    std::string text;
    std::size_t number;
};

[[noreturn]] void
bad(std::size_t line, const std::string &msg)
{
    throw SpecError("sweep config line " + std::to_string(line) + ": " +
                    msg);
}

/** Parse one variant: base settings, the variant's own lines, then
 * the base program unless the variant declared one of its own. */
ScenarioSpec
parseVariant(const std::string &variant_name, std::size_t header_line,
             const std::vector<Line> &base_settings,
             const std::vector<Line> &base_events,
             const std::vector<Line> &variant_lines)
{
    SpecParser parser;
    for (const Line &l : base_settings)
        parser.feed(l.text, l.number);
    // The section header names the variant; an explicit `name =` line
    // inside the section still wins.
    parser.feed("name = " + variant_name, header_line);
    for (const Line &l : variant_lines)
        parser.feed(l.text, l.number);
    // A variant that declared events replaces the base program;
    // otherwise it inherits it. Event order within the program is the
    // base file's either way.
    if (!parser.sawEvents())
        for (const Line &l : base_events)
            parser.feed(l.text, l.number);
    return parser.finish();
}

} // namespace

SweepSpec
SweepSpec::parse(std::istream &in)
{
    SweepSpec sweep;
    bool named = false;

    std::vector<Line> base_settings, base_events;
    // Open variant section (name, header line, body lines).
    std::string variant_name;
    std::size_t variant_line = 0;
    std::vector<Line> variant_lines;
    bool in_variant = false;

    auto close_variant = [&]() {
        if (!in_variant)
            return;
        ScenarioSpec parsed =
            parseVariant(variant_name, variant_line, base_settings,
                         base_events, variant_lines);
        // Compare final names (an explicit `name =` line inside the
        // section overrides the header), so a parsed sweep always
        // round-trips through its canonical form.
        for (const auto &v : sweep.variants)
            if (v.name == parsed.name)
                bad(variant_line,
                    "duplicate variant '" + parsed.name + "'");
        sweep.variants.push_back(std::move(parsed));
        variant_lines.clear();
    };

    // The base section is diagnosed on its own once it closes (first
    // variant line or EOF): a variant that overrides the program
    // would otherwise silently swallow malformed base event lines,
    // and a file with no variants would mask base syntax errors
    // behind the generic no-variants message.
    bool base_validated = false;
    auto validate_base = [&]() {
        if (base_validated)
            return;
        base_validated = true;
        SpecParser probe;
        for (const Line &l : base_settings)
            probe.feed(l.text, l.number);
        for (const Line &l : base_events)
            probe.feed(l.text, l.number);
        probe.finish();
    };

    std::string raw;
    std::size_t lineno = 0;
    while (std::getline(in, raw)) {
        ++lineno;
        ConfigLine lexed = lexConfigLine(raw);
        if (lexed.key == "sweep") {
            if (in_variant)
                bad(lineno, "'sweep' must precede the first variant");
            if (named)
                bad(lineno, "duplicate 'sweep' line");
            if (lexed.value.empty())
                bad(lineno, "empty sweep name");
            sweep.name = lexed.value;
            named = true;
        } else if (lexed.key == "variant") {
            validate_base();
            close_variant();
            if (lexed.value.empty())
                bad(lineno, "empty variant name");
            variant_name = lexed.value;
            variant_line = lineno;
            in_variant = true;
        } else if (in_variant) {
            variant_lines.push_back({raw, lineno});
        } else if (lexed.key == "event") {
            base_events.push_back({raw, lineno});
        } else {
            base_settings.push_back({raw, lineno});
        }
    }
    validate_base();
    close_variant();

    if (sweep.variants.empty())
        throw SpecError(
            "sweep config declares no variants (need at least one "
            "'variant = NAME' section)");
    return sweep;
}

SweepSpec
SweepSpec::parseString(const std::string &text)
{
    std::istringstream in(text);
    return parse(in);
}

SweepSpec
SweepSpec::loadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw SpecError("cannot open sweep config: " + path);
    return parse(in);
}

std::string
SweepSpec::toString() const
{
    // Canonical form is base-free: every variant is self-contained,
    // which round-trips regardless of what the variants share.
    std::ostringstream os;
    os << "sweep = " << name << "\n";
    for (const auto &v : variants) {
        os << "\nvariant = " << v.name << "\n";
        os << v.toString();
    }
    return os.str();
}

bool
looksLikeSweepConfig(std::istream &in)
{
    std::string raw;
    while (std::getline(in, raw)) {
        ConfigLine lexed = lexConfigLine(raw);
        if (lexed.key == "sweep" || lexed.key == "variant")
            return true;
    }
    return false;
}

} // namespace ariadne::driver
