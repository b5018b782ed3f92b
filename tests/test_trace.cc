/** @file Unit tests for trace serialization. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "workload/trace.hh"

using namespace ariadne;

namespace
{

std::string
tempPath(const std::string &name)
{
    return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<TraceRecord>
sampleRecords()
{
    std::vector<TraceRecord> recs;
    recs.push_back({0, TraceOp::Launch, 1, invalidPfn, 0,
                    Hotness::Cold, false});
    recs.push_back({100, TraceOp::Touch, 1, 42, 0, Hotness::Hot, true});
    recs.push_back(
        {200, TraceOp::Touch, 1, 43, 2, Hotness::Warm, false});
    recs.push_back({300, TraceOp::Background, 1, invalidPfn, 0,
                    Hotness::Cold, false});
    recs.push_back(
        {400, TraceOp::Relaunch, 1, invalidPfn, 0, Hotness::Cold,
         false});
    recs.push_back({500, TraceOp::RelaunchEnd, 1, invalidPfn, 0,
                    Hotness::Cold, false});
    recs.push_back({600, TraceOp::Free, 1, 42, 0, Hotness::Cold,
                    false});
    return recs;
}

} // namespace

TEST(Trace, WriteReadRoundtrip)
{
    std::string path = tempPath("ariadne_trace_rt.bin");
    auto recs = sampleRecords();
    writeTrace(path, recs);
    auto back = readTrace(path);
    EXPECT_EQ(back, recs);
    std::remove(path.c_str());
}

TEST(Trace, EmptyTrace)
{
    std::string path = tempPath("ariadne_trace_empty.bin");
    writeTrace(path, {});
    auto back = readTrace(path);
    EXPECT_TRUE(back.empty());
    std::remove(path.c_str());
}

TEST(Trace, StreamingReaderCountsMatch)
{
    std::string path = tempPath("ariadne_trace_stream.bin");
    auto recs = sampleRecords();
    {
        TraceWriter w(path);
        for (const auto &r : recs)
            w.append(r);
        EXPECT_EQ(w.count(), recs.size());
    }
    TraceReader r(path);
    EXPECT_EQ(r.count(), recs.size());
    TraceRecord rec;
    std::size_t n = 0;
    while (r.next(rec))
        ++n;
    EXPECT_EQ(n, recs.size());
    std::remove(path.c_str());
}

TEST(Trace, LargeTraceRoundtrip)
{
    std::string path = tempPath("ariadne_trace_large.bin");
    std::vector<TraceRecord> recs;
    for (std::uint64_t i = 0; i < 10000; ++i) {
        recs.push_back({i * 10, TraceOp::Touch,
                        static_cast<AppId>(i % 10), i,
                        static_cast<std::uint32_t>(i % 3),
                        static_cast<Hotness>(i % 3), i % 7 == 0});
    }
    writeTrace(path, recs);
    EXPECT_EQ(readTrace(path), recs);
    std::remove(path.c_str());
}

TEST(Trace, CsvExportHasHeaderAndRows)
{
    std::string bin = tempPath("ariadne_trace_csv.bin");
    std::string csv = tempPath("ariadne_trace.csv");
    auto recs = sampleRecords();
    exportTraceCsv(csv, recs);

    std::ifstream in(csv);
    std::string line;
    std::size_t lines = 0;
    bool header_ok = false;
    while (std::getline(in, line)) {
        if (lines == 0)
            header_ok = line.rfind("time_ns,op,uid", 0) == 0;
        ++lines;
    }
    EXPECT_TRUE(header_ok);
    EXPECT_EQ(lines, recs.size() + 1);
    std::remove(bin.c_str());
    std::remove(csv.c_str());
}

TEST(Trace, WriteReadCsvRoundtripPreservesEveryField)
{
    // Binary write -> read keeps record equality; the CSV export of
    // the read-back trace then renders every field faithfully.
    std::string bin = tempPath("ariadne_trace_rt2.bin");
    std::string csv = tempPath("ariadne_trace_rt2.csv");
    auto recs = sampleRecords();
    writeTrace(bin, recs);
    auto back = readTrace(bin);
    ASSERT_EQ(back, recs);
    exportTraceCsv(csv, back);

    std::ifstream in(csv);
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // header
    for (const auto &rec : recs) {
        ASSERT_TRUE(std::getline(in, line));
        std::ostringstream expect;
        expect << rec.time << ',' << traceOpName(rec.op) << ','
               << rec.uid << ',' << rec.pfn << ',' << rec.version
               << ',' << hotnessName(rec.truth) << ','
               << (rec.newAllocation ? 1 : 0);
        EXPECT_EQ(line, expect.str());
    }
    EXPECT_FALSE(std::getline(in, line));
    std::remove(bin.c_str());
    std::remove(csv.c_str());
}

TEST(Trace, V2OpsRoundtrip)
{
    std::string path = tempPath("ariadne_trace_v2ops.bin");
    std::vector<TraceRecord> recs;
    recs.push_back({0, TraceOp::SessionStart, invalidApp, 0, 0,
                    Hotness::Cold, false});
    recs.push_back({10, TraceOp::Execute, 3, 2000000000ULL, 0,
                    Hotness::Cold, false});
    recs.push_back({20, TraceOp::Idle, invalidApp, 500000000ULL, 0,
                    Hotness::Cold, false});
    recs.push_back({30, TraceOp::Sample, 3, 0, 0, Hotness::Cold,
                    false});
    writeTrace(path, recs);
    EXPECT_EQ(readTrace(path), recs);
    std::remove(path.c_str());
}

TEST(Trace, HeaderCarriesSpecAndSessions)
{
    std::string path = tempPath("ariadne_trace_hdr.bin");
    const std::string spec_text = "name = recorded\nscheme = zram\n";
    {
        TraceWriter w(path, spec_text);
        w.beginSession(0);
        for (const auto &rec : sampleRecords())
            w.append(rec);
        w.beginSession(1);
        EXPECT_EQ(w.sessionCount(), 2u);
    }
    TraceReader r(path);
    EXPECT_EQ(r.version(), 2u);
    EXPECT_EQ(r.spec(), spec_text);
    EXPECT_EQ(r.sessionCount(), 2u);
    // Session boundaries are ordinary records in the stream.
    EXPECT_EQ(r.count(), sampleRecords().size() + 2);
    TraceRecord rec;
    ASSERT_TRUE(r.next(rec));
    EXPECT_EQ(rec.op, TraceOp::SessionStart);
    EXPECT_EQ(rec.pfn, 0u);
    std::remove(path.c_str());
}

TEST(Trace, OpNamesStable)
{
    EXPECT_STREQ(traceOpName(TraceOp::Launch), "launch");
    EXPECT_STREQ(traceOpName(TraceOp::Relaunch), "relaunch");
    EXPECT_STREQ(traceOpName(TraceOp::Touch), "touch");
    EXPECT_STREQ(traceOpName(TraceOp::Free), "free");
}

TEST(TraceDeath, MissingFileIsFatal)
{
    EXPECT_DEATH(TraceReader("/nonexistent/path/trace.bin"),
                 "cannot open");
}

TEST(TraceDeath, CorruptHeaderIsFatal)
{
    std::string path = tempPath("ariadne_trace_bad.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "garbage that is not a trace header";
    }
    EXPECT_DEATH(TraceReader reader(path), "bad trace header");
    std::remove(path.c_str());
}

namespace
{

/** Write a valid trace, then chop it to @p keep_bytes. */
std::string
truncatedTrace(const std::string &name, std::size_t keep_bytes)
{
    std::string path = tempPath(name);
    writeTrace(path, sampleRecords());
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    EXPECT_GT(bytes.size(), keep_bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(keep_bytes));
    return path;
}

} // namespace

TEST(TraceDeath, TruncatedRecordSectionIsFatalNotSilent)
{
    // Header promises 7 records; the file ends mid-stream. next()
    // must diagnose the truncation, not quietly report end-of-file.
    std::string path =
        truncatedTrace("ariadne_trace_trunc.bin", 24 + 2 * 27 + 5);
    EXPECT_DEATH(
        {
            TraceReader reader(path);
            TraceRecord rec;
            while (reader.next(rec)) {
            }
        },
        "trace truncated");
    std::remove(path.c_str());
}

TEST(Trace, ThrowPolicyRaisesTraceErrorInsteadOfExiting)
{
    EXPECT_THROW(TraceReader("/nonexistent/path/trace.bin",
                             TraceReader::OnError::Throw),
                 TraceError);

    std::string bad = tempPath("ariadne_trace_bad_throw.bin");
    {
        std::ofstream out(bad, std::ios::binary);
        out << "garbage that is not a trace header";
    }
    EXPECT_THROW(TraceReader(bad, TraceReader::OnError::Throw),
                 TraceError);
    std::remove(bad.c_str());

    std::string trunc =
        truncatedTrace("ariadne_trace_trunc_throw.bin",
                       24 + 2 * 27 + 5);
    TraceReader reader(trunc, TraceReader::OnError::Throw);
    TraceRecord rec;
    EXPECT_TRUE(reader.next(rec));
    EXPECT_TRUE(reader.next(rec));
    EXPECT_THROW(reader.next(rec), TraceError);
    std::remove(trunc.c_str());
}

TEST(Trace, UnsupportedVersionIsRejected)
{
    // Only version 2 is read: the retired version 1 and a future
    // version are both rejected.
    for (std::uint32_t version : {1u, 99u}) {
        std::string path = tempPath("ariadne_trace_version.bin");
        writeTrace(path, sampleRecords());
        std::fstream f(path,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(4);
        f.write(reinterpret_cast<const char *>(&version), 4);
        f.close();
        EXPECT_THROW(TraceReader(path, TraceReader::OnError::Throw),
                     TraceError)
            << "version " << version;
        std::remove(path.c_str());
    }
}
