/**
 * @file
 * Minimal JSON reader for partial reports.
 *
 * The shard/merge pipeline round-trips numbers through
 * JsonWriter::formatDouble (shortest round-trippable form), so the
 * reader must parse them back to the *identical* double — it keeps
 * each number's raw token and converts with strtod (correctly rounded)
 * on access, and integer fields re-parse the token as an exact u64 so
 * 64-bit seeds survive the trip unclamped.
 *
 * This is a deliberately small recursive-descent parser for the
 * documents this repository writes, not a general-purpose library:
 * UTF-8 passes through verbatim, \uXXXX escapes (including surrogate
 * pairs) decode to UTF-8, and malformed input throws JsonError with
 * the byte offset.
 */

#ifndef ARIADNE_REPORT_JSON_READER_HH
#define ARIADNE_REPORT_JSON_READER_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report/report_error.hh"

namespace ariadne::report
{

/** Malformed JSON text (message names the byte offset). */
class JsonError : public ReportError
{
  public:
    using ReportError::ReportError;
};

/** One parsed JSON value (a tree; object keys keep file order). */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Object,
        Array,
    };

    Type type = Type::Null;

    bool isNull() const noexcept { return type == Type::Null; }
    bool isObject() const noexcept { return type == Type::Object; }

    /** Typed accessors; throw JsonError naming the expected type. */
    bool asBool() const;
    double asDouble() const;
    /** Exact unsigned integer (re-parsed from the raw token, so full
     * 64-bit values survive); throws on fractions and negatives. */
    std::uint64_t asU64() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &asArray() const;
    const std::vector<std::pair<std::string, JsonValue>> &
    asObject() const;

    /** Member @p key of an object; nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key of an object; throws JsonError when absent. */
    const JsonValue &at(const std::string &key) const;

    /** Parse one document (trailing garbage is an error). */
    static JsonValue parseText(const std::string &text);

  private:
    friend class JsonParser;

    bool boolValue = false;
    double numberValue = 0.0;
    /** Raw number token (asU64 re-parses it exactly). */
    std::string numberText;
    std::string stringValue;
    std::vector<std::pair<std::string, JsonValue>> members;
    std::vector<JsonValue> elements;
};

} // namespace ariadne::report

#endif // ARIADNE_REPORT_JSON_READER_HH
