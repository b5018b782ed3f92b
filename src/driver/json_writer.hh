/**
 * @file
 * Minimal streaming JSON writer for machine-readable reports.
 *
 * The fleet driver promises bit-identical output for identical runs
 * regardless of thread count, so number formatting must be
 * deterministic: doubles are emitted with std::to_chars (shortest
 * round-trippable form), never locale- or precision-dependent
 * iostream formatting. Non-finite doubles become null (JSON has no
 * inf/nan).
 *
 * Also provides a JSON dump of ReportTable so every harness can emit
 * machine-readable output next to its tables.
 */

#ifndef ARIADNE_DRIVER_JSON_WRITER_HH
#define ARIADNE_DRIVER_JSON_WRITER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace ariadne
{

class ReportTable;

namespace driver
{

/**
 * Streaming writer producing pretty-printed JSON. Usage mirrors the
 * document structure:
 *
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.field("name", "daily");
 *   w.key("sessions"); w.beginArray(); ... w.endArray();
 *   w.endObject();
 *
 * Structural mistakes (value without key inside an object, unbalanced
 * end calls) trigger panic(): they are programming errors, not input
 * errors.
 */
class JsonWriter
{
  public:
    /** @param indent_width Spaces per nesting level (0 = compact). */
    explicit JsonWriter(std::ostream &os, int indent_width = 2)
        : out(os), indentWidth(indent_width)
    {
    }

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; the next emission must be its value. */
    void key(const std::string &name);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
    void value(bool v);
    void nullValue();

    /** key() plus value() in one call. */
    template <typename T>
    void
    field(const std::string &name, const T &v)
    {
        key(name);
        value(v);
    }

    /** JSON string escaping (quotes not included). */
    static std::string escape(const std::string &s);

    /** Deterministic shortest round-trip form of a double. */
    static std::string formatDouble(double v);

  private:
    enum class Scope { Object, Array };

    void beforeValue();
    void beforeKey();
    void newline();

    std::ostream &out;
    int indentWidth;
    std::vector<Scope> scopes;
    /** Whether the current scope has emitted at least one element. */
    std::vector<bool> populated;
    bool keyPending = false;
};

/** Dump a ReportTable as an array of column-keyed row objects. */
void writeJson(JsonWriter &w, const ReportTable &table);

} // namespace driver
} // namespace ariadne

#endif // ARIADNE_DRIVER_JSON_WRITER_HH
