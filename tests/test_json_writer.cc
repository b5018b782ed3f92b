/** @file Unit tests for the streaming JSON writer. */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "analysis/report.hh"
#include "driver/json_writer.hh"

using namespace ariadne;
using namespace ariadne::driver;

namespace
{

/** Run @p fn against a compact (indent 0) writer, return the text. */
template <typename Fn>
std::string
compact(Fn &&fn)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    fn(w);
    return os.str();
}

} // namespace

TEST(JsonWriter, EmptyObjectAndArray)
{
    EXPECT_EQ(compact([](JsonWriter &w) {
                  w.beginObject();
                  w.endObject();
              }),
              "{}");
    EXPECT_EQ(compact([](JsonWriter &w) {
                  w.beginArray();
                  w.endArray();
              }),
              "[]");
}

TEST(JsonWriter, CommasSeparateElements)
{
    std::string text = compact([](JsonWriter &w) {
        w.beginObject();
        w.field("a", 1);
        w.field("b", 2);
        w.key("c");
        w.beginArray();
        w.value(1);
        w.value(2);
        w.value(3);
        w.endArray();
        w.endObject();
    });
    EXPECT_EQ(text, R"({"a": 1,"b": 2,"c": [1,2,3]})");
}

TEST(JsonWriter, PrettyPrintingIndents)
{
    std::ostringstream os;
    JsonWriter w(os, 2);
    w.beginObject();
    w.field("a", 1);
    w.endObject();
    EXPECT_EQ(os.str(), "{\n  \"a\": 1\n}");
}

TEST(JsonWriter, EscapesStrings)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(JsonWriter::escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonWriter, FormatsDoublesDeterministically)
{
    EXPECT_EQ(JsonWriter::formatDouble(0.0), "0");
    EXPECT_EQ(JsonWriter::formatDouble(1.5), "1.5");
    EXPECT_EQ(JsonWriter::formatDouble(0.0625), "0.0625");
    // Shortest round-trip form, not fixed precision.
    EXPECT_EQ(JsonWriter::formatDouble(1.0 / 3.0),
              JsonWriter::formatDouble(1.0 / 3.0));
    // Non-finite doubles have no JSON representation.
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(JsonWriter::formatDouble(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
}

TEST(JsonWriter, BooleansAndNull)
{
    std::string text = compact([](JsonWriter &w) {
        w.beginArray();
        w.value(true);
        w.value(false);
        w.nullValue();
        w.endArray();
    });
    EXPECT_EQ(text, "[true,false,null]");
}

TEST(JsonWriter, ReportTableDump)
{
    ReportTable table({"App", "ms"});
    table.addRow({"YouTube", "42.0"});
    table.addRow({"Twitter", "17.5"});

    std::string text = compact(
        [&](JsonWriter &w) { writeJson(w, table); });
    EXPECT_EQ(text, R"([{"App": "YouTube","ms": "42.0"},)"
                    R"({"App": "Twitter","ms": "17.5"}])");
}
