#include "core/config.hh"

#include <limits>
#include <sstream>
#include <vector>

#include "compress/chunked.hh"
#include "mem/zpool.hh"
#include "sim/log.hh"
#include "sim/parse_count.hh"

namespace ariadne
{

namespace
{

/**
 * Largest LargeSize whose cold unit fits one zpool object. A cold
 * unit holds at most LargeSize bytes in one chunk, and a chunk that
 * does not shrink is stored raw, so its worst-case frame is the
 * header, one 4-byte size record and LargeSize bytes.
 */
constexpr std::size_t maxLargeSize = Zpool::maxObjectBytes -
                                     ChunkedFrame::headerBytes -
                                     sizeof(std::uint32_t);

std::string
sizeToken(std::size_t bytes)
{
    if (bytes >= 1024 && bytes % 1024 == 0)
        return std::to_string(bytes / 1024) + "K";
    return std::to_string(bytes);
}

/** Parse one size token into @p out; false + @p error on bad input. */
bool
parseSizeToken(const std::string &tok, std::size_t &out,
               std::string &error)
{
    if (tok.empty()) {
        error = "empty size token in Ariadne config";
        return false;
    }
    std::size_t mult = 1;
    std::string digits = tok;
    char last = tok.back();
    if (last == 'K' || last == 'k') {
        mult = 1024;
        digits = tok.substr(0, tok.size() - 1);
    }
    std::size_t v = 0;
    std::errc ec = parseCount(digits, v);
    if (ec == std::errc::result_out_of_range ||
        (ec == std::errc() &&
         v > std::numeric_limits<std::size_t>::max() / mult)) {
        error = "size token out of range: " + tok;
        return false;
    }
    if (ec != std::errc()) {
        error = "bad size token: " + tok;
        return false;
    }
    out = v * mult;
    return true;
}

std::vector<std::string>
splitDashes(const std::string &text)
{
    std::vector<std::string> parts;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, '-'))
        parts.push_back(item);
    return parts;
}

} // namespace

std::string
AriadneConfig::toString() const
{
    std::string s = "Ariadne-";
    s += excludeHotList ? "EHL" : "AL";
    for (std::size_t size : {smallSize, mediumSize, largeSize}) {
        s += '-';
        s += sizeToken(size);
    }
    return s;
}

std::optional<AriadneConfig>
AriadneConfig::tryParse(const std::string &text, std::string *error)
{
    auto fail =
        [error](std::string msg) -> std::optional<AriadneConfig> {
        if (error)
            *error = std::move(msg);
        return std::nullopt;
    };

    auto parts = splitDashes(text);
    // Accept an optional leading "Ariadne" token.
    if (!parts.empty() && (parts[0] == "Ariadne" || parts[0] == "ariadne"))
        parts.erase(parts.begin());
    if (parts.size() != 4)
        return fail("Ariadne config must be MODE-SMALL-MEDIUM-LARGE: " +
                    text);

    AriadneConfig cfg;
    if (parts[0] == "EHL")
        cfg.excludeHotList = true;
    else if (parts[0] == "AL")
        cfg.excludeHotList = false;
    else
        return fail("Ariadne config mode must be EHL or AL: " + text);

    std::string token_error;
    if (!parseSizeToken(parts[1], cfg.smallSize, token_error) ||
        !parseSizeToken(parts[2], cfg.mediumSize, token_error) ||
        !parseSizeToken(parts[3], cfg.largeSize, token_error))
        return fail(token_error);

    if (cfg.smallSize == 0 || cfg.mediumSize == 0 || cfg.largeSize == 0)
        return fail("Ariadne chunk sizes must be > 0: " + text);
    if (cfg.smallSize > cfg.mediumSize || cfg.mediumSize > cfg.largeSize)
        return fail("Ariadne chunk sizes must be ordered "
                    "small<=medium<=large: " +
                    text);
    if (cfg.largeSize > maxLargeSize)
        return fail("Ariadne LargeSize must be at most " +
                    std::to_string(maxLargeSize) +
                    " bytes so a cold unit fits one zpool object: " +
                    text);
    return cfg;
}

AriadneConfig
AriadneConfig::parse(const std::string &text)
{
    std::string error;
    auto cfg = tryParse(text, &error);
    fatalIf(!cfg.has_value(), error);
    return *cfg;
}

} // namespace ariadne
