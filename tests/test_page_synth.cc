/** @file Unit tests for the deterministic page-content synthesizer. */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "compress/registry.hh"
#include "compress/chunked.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

using namespace ariadne;

namespace
{

std::vector<std::uint8_t>
page(const PageSynthesizer &synth, AppId uid, Pfn pfn,
     std::uint32_t version = 0)
{
    std::vector<std::uint8_t> buf(pageSize);
    synth.materialize(PageKey{uid, pfn}, version,
                      {buf.data(), buf.size()});
    return buf;
}

} // namespace

TEST(PageSynth, Deterministic)
{
    PageSynthesizer synth(standardApps());
    EXPECT_EQ(page(synth, 0, 1), page(synth, 0, 1));
    PageSynthesizer other(standardApps());
    EXPECT_EQ(page(synth, 3, 77), page(other, 3, 77));
}

TEST(PageSynth, DistinctPagesDiffer)
{
    PageSynthesizer synth(standardApps());
    EXPECT_NE(page(synth, 0, 1), page(synth, 0, 2));
    EXPECT_NE(page(synth, 0, 1), page(synth, 1, 1));
}

TEST(PageSynth, VersionChangesContent)
{
    PageSynthesizer synth(standardApps());
    EXPECT_NE(page(synth, 0, 1, 0), page(synth, 0, 1, 1));
}

TEST(PageSynth, ConcurrentFirstUseMatchesSequential)
{
    // materialize() is const but builds an app's pools on first use:
    // threads racing to that first use must all get the same pools.
    PageSynthesizer shared(standardApps());
    PageSynthesizer reference(standardApps());
    std::vector<std::vector<std::uint8_t>> got(4);
    std::vector<std::thread> threads;
    for (Pfn t = 0; t < got.size(); ++t)
        threads.emplace_back([&, t] { got[t] = page(shared, 2, 10 + t); });
    for (std::thread &th : threads)
        th.join();
    for (Pfn t = 0; t < got.size(); ++t)
        EXPECT_EQ(got[t], page(reference, 2, 10 + t));
}

TEST(PageSynth, UnknownAppUsesDefaultMix)
{
    PageSynthesizer synth(standardApps());
    auto buf = page(synth, 999, 0);
    EXPECT_EQ(buf.size(), pageSize);
}

TEST(PageSynth, CompressibilityInPlausibleRange)
{
    // A single page at 4 KB chunks should land in the rough zram
    // regime (ratio ~1.5-4 averaged over pages).
    PageSynthesizer synth(standardApps());
    auto codec = makeCodec(CodecKind::Lzo);
    std::size_t in = 0, out = 0;
    for (Pfn pfn = 0; pfn < 64; ++pfn) {
        auto buf = page(synth, 0, pfn);
        std::vector<std::uint8_t> comp(
            codec->compressBound(buf.size()));
        out += codec->compress({buf.data(), buf.size()},
                               {comp.data(), comp.size()});
        in += buf.size();
    }
    double ratio = static_cast<double>(in) / static_cast<double>(out);
    EXPECT_GT(ratio, 1.3);
    EXPECT_LT(ratio, 5.0);
}

TEST(PageSynth, LargerWindowsCompressBetter)
{
    // Insight 2: cross-page redundancy appears at larger chunks.
    PageSynthesizer synth(standardApps());
    auto codec = makeCodec(CodecKind::Lz4);
    constexpr std::size_t pages = 64;
    std::vector<std::uint8_t> corpus(pages * pageSize);
    for (Pfn pfn = 0; pfn < pages; ++pfn) {
        synth.materialize(PageKey{1, pfn}, 0,
                          {corpus.data() + pfn * pageSize, pageSize});
    }
    auto small = ChunkedFrame::compress(
        *codec, {corpus.data(), corpus.size()}, 256);
    auto large = ChunkedFrame::compress(
        *codec, {corpus.data(), corpus.size()}, 65536);
    EXPECT_LT(large.size(), small.size());
    double gain = static_cast<double>(small.size()) /
                  static_cast<double>(large.size());
    EXPECT_GT(gain, 1.3); // ratio roughly doubles in Fig. 6
}

TEST(PageSynth, GameDataLessCompressibleThanBrowserData)
{
    // BangDream (media/float heavy) compresses worse than Twitter
    // (text heavy), matching the per-app ratio ordering of Fig. 13.
    PageSynthesizer synth(standardApps());
    auto codec = makeCodec(CodecKind::Lzo);
    auto total = [&](AppId uid) {
        std::size_t out = 0;
        for (Pfn pfn = 0; pfn < 64; ++pfn) {
            auto buf = page(synth, uid, pfn);
            std::vector<std::uint8_t> comp(
                codec->compressBound(buf.size()));
            out += codec->compress({buf.data(), buf.size()},
                                   {comp.data(), comp.size()});
        }
        return out;
    };
    AppId twitter = standardApp("Twitter").uid;
    AppId bang = standardApp("BangDream").uid;
    EXPECT_LT(total(twitter), total(bang));
}

TEST(PageSynth, PartialBufferFill)
{
    PageSynthesizer synth(standardApps());
    std::vector<std::uint8_t> buf(1000); // not page-aligned
    synth.materialize(PageKey{0, 5}, 0, {buf.data(), buf.size()});
    // Must fill the whole span deterministically.
    std::vector<std::uint8_t> again(1000);
    synth.materialize(PageKey{0, 5}, 0, {again.data(), again.size()});
    EXPECT_EQ(buf, again);
}
