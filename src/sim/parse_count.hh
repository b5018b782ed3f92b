/**
 * @file
 * The one parser for counts in user input: config values, scheme
 * knobs, shard specs and command-line flags.
 */

#ifndef ARIADNE_SIM_PARSE_COUNT_HH
#define ARIADNE_SIM_PARSE_COUNT_HH

#include <charconv>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ariadne
{

/**
 * Parse @p text as a decimal count: digits only, so "", "abc", "-1",
 * "+1", " 1" and "1k" are rejected instead of wrapping or stopping
 * early, and so is any value that does not fit @p out. Callers word
 * their own error message.
 * @return std::errc() on success; std::errc::result_out_of_range for
 *         digits that overflow @p out; std::errc::invalid_argument for
 *         anything else. @p out is left untouched on failure.
 */
template <typename Count>
std::errc
parseCount(std::string_view text, Count &out)
{
    static_assert(std::is_unsigned_v<Count>,
                  "a count is unsigned; from_chars would accept '-'");
    const char *end = text.data() + text.size();
    Count v = 0;
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ptr != end)
        return std::errc::invalid_argument;
    if (ec == std::errc())
        out = v;
    return ec;
}

} // namespace ariadne

#endif // ARIADNE_SIM_PARSE_COUNT_HH
