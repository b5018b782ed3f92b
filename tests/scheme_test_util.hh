/** @file Shared harness for swap-scheme unit tests. */

#ifndef ARIADNE_TESTS_SCHEME_TEST_UTIL_HH
#define ARIADNE_TESTS_SCHEME_TEST_UTIL_HH

#include <map>
#include <utility>
#include <vector>

#include "mem/dram.hh"
#include "mem/page_arena.hh"
#include "swap/page_compressor.hh"
#include "swap/scheme.hh"
#include "workload/apps.hh"
#include "workload/page_synth.hh"

namespace ariadne::testutil
{

/**
 * Owns everything a SwapScheme needs: clock, accounts, DRAM budget,
 * synthesizer-backed compressor, and an arena-backed page table.
 */
struct SchemeHarness
{
    explicit SchemeHarness(std::size_t dram_pages = 1024)
        : dram(dram_pages * pageSize, 0.02, 0.05),
          synth(standardApps()), compressor(synth)
    {}

    SwapContext
    context()
    {
        return SwapContext{clock, timing, cpu, activity, dram,
                           compressor};
    }

    /** Create (or fetch) a page owned by @p uid. */
    PageMeta &
    page(AppId uid, Pfn pfn, Hotness truth = Hotness::Cold)
    {
        auto it = pages.find({uid, pfn});
        if (it == pages.end()) {
            PageMeta *meta = arena.alloc();
            meta->key = PageKey{uid, pfn};
            meta->truth = truth;
            it = pages.emplace(std::make_pair(uid, pfn), meta).first;
        }
        return *it->second;
    }

    /** Admit @p n fresh resident pages for @p uid into @p scheme. */
    std::vector<PageMeta *>
    admitPages(SwapScheme &scheme, AppId uid, std::size_t n,
               Hotness truth = Hotness::Cold, Pfn first_pfn = 0)
    {
        std::vector<PageMeta *> result;
        result.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            PageMeta &p = page(uid, first_pfn + i, truth);
            scheme.allocateResident();
            p.location = PageLocation::Resident;
            scheme.onAdmit(p);
            result.push_back(&p);
        }
        return result;
    }

    Clock clock;
    TimingModel timing;
    CpuAccount cpu;
    ActivityTotals activity;
    Dram dram;
    PageSynthesizer synth;
    PageCompressor compressor;
    PageArena arena;
    /** (uid, pfn) -> arena record; keeps page() idempotent. */
    std::map<std::pair<AppId, Pfn>, PageMeta *> pages;
};

} // namespace ariadne::testutil

#endif // ARIADNE_TESTS_SCHEME_TEST_UTIL_HH
