#include "swap/flash_swap.hh"

#include <algorithm>

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

telemetry::Counter c_swapout("flash.swapout");
telemetry::Counter c_swapoutDropped("flash.swapout_dropped");
telemetry::Counter c_swapin("flash.swapin");
telemetry::SpanProbe d_swapin("flash.swapin");

} // namespace

FlashSwapScheme::FlashSwapScheme(SwapContext context,
                                 FlashSwapConfig config)
    : LruScheme(context), flashDev(config.flashBytes)
{
}

SchemeInfo
flashSwapSchemeInfo()
{
    SchemeInfo info;
    info.key = "swap";
    info.displayName = "SWAP";
    info.description = "uncompressed flash swap with readahead "
                       "clustering (low CPU, high latency and wear)";
    info.build = [](SwapContext ctx, const SchemeParams &, double scale,
                    const std::vector<AppProfile> &) {
        FlashSwapConfig fc;
        fc.flashBytes = scaledBytes(fc.flashBytes, scale);
        return std::make_unique<FlashSwapScheme>(ctx, fc);
    };
    return info;
}

void
FlashSwapScheme::evict(PageMeta &victim, bool synchronous)
{
    FlashSlot slot = flashDev.write(pageSize);
    if (slot == invalidFlashSlot) {
        // Swap space exhausted: data dropped.
        c_swapoutDropped.add();
        losePage(victim);
        return;
    }
    c_swapout.add();
    // Submission is cheap CPU; the program happens in the device
    // while the CPU runs other work.
    Tick submit = ctx.timing.params().flashSubmitCpuNs;
    ctx.cpu.charge(CpuRole::IoSubmit, submit);
    if (synchronous)
        ctx.clock.advance(submit);
    ctx.activity.flashWriteBytes += pageSize;
    telemetry::journeyMark(victim.key.uid, victim.key.pfn,
                           telemetry::JourneyStep::Flash,
                           ctx.clock.now());
    victim.location = PageLocation::Flash;
    victim.flashSlot = slot;
}

SwapInResult
FlashSwapScheme::swapIn(PageMeta &page)
{
    panicIf(page.location != PageLocation::Flash,
            "FlashSwapScheme::swapIn on non-flash page");
    c_swapin.add();
    telemetry::ScopedSpan span(d_swapin);
    SwapInResult res;
    res.fromFlash = true;
    Stopwatch sw(ctx.clock);

    Tick fault = ctx.timing.params().majorFaultBaseNs;
    ctx.cpu.charge(CpuRole::FaultPath, fault);
    ctx.clock.advance(fault);

    flashDev.read(page.flashSlot);
    flashDev.free(page.flashSlot);
    page.flashSlot = invalidFlashSlot;

    // Effective per-fault read latency: one device access amortized
    // over the readahead cluster it brings in.
    unsigned cluster =
        std::max(1u, ctx.timing.params().flashReadaheadPages);
    Tick read = ctx.timing.params().flashReadPageNs / cluster;
    Tick submit = ctx.timing.params().flashSubmitCpuNs;
    ctx.cpu.charge(CpuRole::IoSubmit, submit);
    ctx.clock.advance(read + submit);
    ctx.activity.flashReadBytes += pageSize;
    ctx.activity.dramBytes += pageSize;

    readmit(page);

    res.latencyNs = sw.elapsed();
    return res;
}

} // namespace ariadne
