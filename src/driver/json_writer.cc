#include "driver/json_writer.hh"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "analysis/report.hh"
#include "sim/log.hh"

namespace ariadne::driver
{

void
JsonWriter::newline()
{
    if (indentWidth <= 0)
        return;
    out << "\n"
        << std::string(scopes.size() *
                           static_cast<std::size_t>(indentWidth),
                       ' ');
}

void
JsonWriter::beforeValue()
{
    if (scopes.empty())
        return;
    if (scopes.back() == Scope::Object) {
        panicIf(!keyPending, "JSON object value emitted without a key");
        keyPending = false;
        return;
    }
    if (populated.back())
        out << ",";
    newline();
    populated.back() = true;
}

void
JsonWriter::beforeKey()
{
    panicIf(scopes.empty() || scopes.back() != Scope::Object,
            "JSON key emitted outside an object");
    panicIf(keyPending, "JSON key emitted while a value was expected");
    if (populated.back())
        out << ",";
    newline();
    populated.back() = true;
}

void
JsonWriter::beginObject()
{
    beforeValue();
    out << "{";
    scopes.push_back(Scope::Object);
    populated.push_back(false);
}

void
JsonWriter::endObject()
{
    panicIf(scopes.empty() || scopes.back() != Scope::Object,
            "unbalanced JSON endObject");
    panicIf(keyPending, "JSON object closed with a dangling key");
    bool had = populated.back();
    scopes.pop_back();
    populated.pop_back();
    if (had)
        newline();
    out << "}";
}

void
JsonWriter::beginArray()
{
    beforeValue();
    out << "[";
    scopes.push_back(Scope::Array);
    populated.push_back(false);
}

void
JsonWriter::endArray()
{
    panicIf(scopes.empty() || scopes.back() != Scope::Array,
            "unbalanced JSON endArray");
    bool had = populated.back();
    scopes.pop_back();
    populated.pop_back();
    if (had)
        newline();
    out << "]";
}

void
JsonWriter::key(const std::string &name)
{
    beforeKey();
    out << "\"" << escape(name) << "\": ";
    keyPending = true;
}

void
JsonWriter::value(const std::string &v)
{
    beforeValue();
    out << "\"" << escape(v) << "\"";
}

void
JsonWriter::value(const char *v)
{
    value(std::string(v));
}

void
JsonWriter::value(double v)
{
    beforeValue();
    out << formatDouble(v);
}

void
JsonWriter::value(std::uint64_t v)
{
    beforeValue();
    out << v;
}

void
JsonWriter::value(std::int64_t v)
{
    beforeValue();
    out << v;
}

void
JsonWriter::value(bool v)
{
    beforeValue();
    out << (v ? "true" : "false");
}

void
JsonWriter::nullValue()
{
    beforeValue();
    out << "null";
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string result;
    result.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': result += "\\\""; break;
          case '\\': result += "\\\\"; break;
          case '\b': result += "\\b"; break;
          case '\f': result += "\\f"; break;
          case '\n': result += "\\n"; break;
          case '\r': result += "\\r"; break;
          case '\t': result += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                result += buf;
            } else {
                result += static_cast<char>(c);
            }
        }
    }
    return result;
}

std::string
JsonWriter::formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    panicIf(ec != std::errc(), "double formatting failed");
    std::string s(buf, ptr);
    // "1e+20" and "1" are valid JSON numbers; nothing more to do.
    return s;
}

void
writeJson(JsonWriter &w, const ReportTable &table)
{
    const auto &columns = table.columnNames();
    w.beginArray();
    for (std::size_t r = 0; r < table.rows(); ++r) {
        const auto &cells = table.row(r);
        w.beginObject();
        for (std::size_t c = 0; c < columns.size(); ++c)
            w.field(columns[c], cells[c]);
        w.endObject();
    }
    w.endArray();
}

} // namespace ariadne::driver
