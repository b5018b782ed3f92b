#include "workload/trace.hh"

#include <array>
#include <cstring>
#include <limits>

#include "sim/log.hh"

namespace ariadne
{

namespace
{

constexpr std::uint32_t traceMagic = 0x52545241u; // "ARTR"
constexpr std::uint32_t traceVersion = 2;

/** On-disk record: 8+1+4+8+4+1+1 = 27 bytes, packed little endian. */
constexpr std::size_t recordBytes = 27;

/** Header field offsets (after the 4-byte magic + 4-byte version):
 * record count u64 @8, session count u32 @16, spec length u32 @20. */
constexpr std::streamoff countOffset = 8;
constexpr std::streamoff sessionOffset = 16;

void
encode(const TraceRecord &rec, std::array<char, recordBytes> &buf)
{
    char *p = buf.data();
    std::memcpy(p, &rec.time, 8);
    p += 8;
    *p++ = static_cast<char>(rec.op);
    std::memcpy(p, &rec.uid, 4);
    p += 4;
    std::memcpy(p, &rec.pfn, 8);
    p += 8;
    std::memcpy(p, &rec.version, 4);
    p += 4;
    *p++ = static_cast<char>(rec.truth);
    *p++ = rec.newAllocation ? 1 : 0;
}

bool
decode(const std::array<char, recordBytes> &buf, TraceRecord &rec)
{
    const char *p = buf.data();
    std::memcpy(&rec.time, p, 8);
    p += 8;
    std::uint8_t op = static_cast<std::uint8_t>(*p++);
    if (op > static_cast<std::uint8_t>(TraceOp::SessionStart))
        return false;
    rec.op = static_cast<TraceOp>(op);
    std::memcpy(&rec.uid, p, 4);
    p += 4;
    std::memcpy(&rec.pfn, p, 8);
    p += 8;
    std::memcpy(&rec.version, p, 4);
    p += 4;
    std::uint8_t truth = static_cast<std::uint8_t>(*p++);
    if (truth > static_cast<std::uint8_t>(Hotness::Cold))
        return false;
    rec.truth = static_cast<Hotness>(truth);
    rec.newAllocation = *p++ != 0;
    return true;
}

} // namespace

const char *
traceOpName(TraceOp op) noexcept
{
    switch (op) {
      case TraceOp::Launch: return "launch";
      case TraceOp::Relaunch: return "relaunch";
      case TraceOp::RelaunchEnd: return "relaunchEnd";
      case TraceOp::Background: return "background";
      case TraceOp::Touch: return "touch";
      case TraceOp::Free: return "free";
      case TraceOp::Execute: return "execute";
      case TraceOp::Idle: return "idle";
      case TraceOp::Sample: return "sample";
      case TraceOp::SessionStart: return "sessionStart";
      default: return "unknown";
    }
}

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &spec_text)
    : out(path, std::ios::binary | std::ios::trunc)
{
    fatalIf(!out, "cannot open trace for writing: " + path);
    fatalIf(spec_text.size() >
                std::numeric_limits<std::uint32_t>::max(),
            "trace spec text too large");
    std::uint64_t count_placeholder = 0;
    std::uint32_t session_placeholder = 0;
    auto spec_len = static_cast<std::uint32_t>(spec_text.size());
    out.write(reinterpret_cast<const char *>(&traceMagic), 4);
    out.write(reinterpret_cast<const char *>(&traceVersion), 4);
    out.write(reinterpret_cast<const char *>(&count_placeholder), 8);
    out.write(reinterpret_cast<const char *>(&session_placeholder), 4);
    out.write(reinterpret_cast<const char *>(&spec_len), 4);
    out.write(spec_text.data(),
              static_cast<std::streamsize>(spec_text.size()));
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::beginSession(std::size_t index)
{
    TraceRecord rec;
    rec.time = 0;
    rec.op = TraceOp::SessionStart;
    rec.uid = invalidApp;
    rec.pfn = index;
    rec.version = 0;
    rec.truth = Hotness::Cold;
    rec.newAllocation = false;
    append(rec);
    ++sessions;
}

void
TraceWriter::append(const TraceRecord &rec)
{
    panicIf(closed, "append to closed TraceWriter");
    std::array<char, recordBytes> buf;
    encode(rec, buf);
    out.write(buf.data(), buf.size());
    ++written;
}

void
TraceWriter::close()
{
    if (closed)
        return;
    closed = true;
    out.seekp(countOffset);
    out.write(reinterpret_cast<const char *>(&written), 8);
    out.seekp(sessionOffset);
    out.write(reinterpret_cast<const char *>(&sessions), 4);
    out.close();
}

void
TraceReader::fail(const std::string &msg) const
{
    if (onError == OnError::Throw)
        throw TraceError(msg);
    fatal(msg);
}

TraceReader::TraceReader(const std::string &path, OnError on_error)
    : in(path, std::ios::binary), path(path), onError(on_error)
{
    if (!in)
        fail("cannot open trace: " + path);
    std::uint32_t magic = 0;
    in.read(reinterpret_cast<char *>(&magic), 4);
    in.read(reinterpret_cast<char *>(&fileVersion), 4);
    in.read(reinterpret_cast<char *>(&total), 8);
    if (!in || magic != traceMagic)
        fail("bad trace header: " + path);
    if (fileVersion != traceVersion)
        fail("unsupported trace version " +
             std::to_string(fileVersion) + " in " + path +
             " (this build reads version " +
             std::to_string(traceVersion) + ")");
    std::uint32_t spec_len = 0;
    in.read(reinterpret_cast<char *>(&sessions), 4);
    in.read(reinterpret_cast<char *>(&spec_len), 4);
    if (!in)
        fail("bad trace header: " + path);
    specText.resize(spec_len);
    in.read(specText.data(), spec_len);
    if (!in)
        fail("trace truncated inside embedded scenario: " + path);
}

bool
TraceReader::next(TraceRecord &rec)
{
    if (consumed >= total)
        return false;
    std::array<char, recordBytes> buf;
    in.read(buf.data(), buf.size());
    if (!in)
        fail("trace truncated: header promises " +
             std::to_string(total) + " record(s) but " + path +
             " ends after " + std::to_string(consumed));
    if (!decode(buf, rec))
        fail("corrupt trace record " + std::to_string(consumed) +
             " in " + path);
    ++consumed;
    return true;
}

std::vector<TraceRecord>
readTrace(const std::string &path, TraceReader::OnError on_error)
{
    TraceReader reader(path, on_error);
    std::vector<TraceRecord> records;
    records.reserve(reader.count());
    TraceRecord rec;
    while (reader.next(rec))
        records.push_back(rec);
    return records;
}

void
writeTrace(const std::string &path,
           const std::vector<TraceRecord> &records)
{
    TraceWriter writer(path);
    for (const auto &rec : records)
        writer.append(rec);
    writer.close();
}

void
exportTraceCsv(const std::string &path,
               const std::vector<TraceRecord> &records)
{
    std::ofstream csv(path, std::ios::trunc);
    fatalIf(!csv, "cannot open CSV for writing: " + path);
    csv << "time_ns,op,uid,pfn,version,truth,new_allocation\n";
    for (const auto &rec : records) {
        csv << rec.time << ',' << traceOpName(rec.op) << ',' << rec.uid
            << ',' << rec.pfn << ',' << rec.version << ','
            << hotnessName(rec.truth) << ','
            << (rec.newAllocation ? 1 : 0) << '\n';
    }
}

} // namespace ariadne
