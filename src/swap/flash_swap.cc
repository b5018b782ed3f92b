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
telemetry::DurationProbe d_swapin("flash.swapin");

} // namespace

FlashSwapScheme::FlashSwapScheme(SwapContext context,
                                 FlashSwapConfig config)
    : SwapScheme(context), cfg(config), flashDev(cfg.flashBytes)
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
    info.knobs = {
        {"flash_mb", "mb", "8192",
         "swap partition capacity (paper scale)"},
        {"reclaim_batch", "u64", "32", "pages written per reclaim "
                                       "batch"},
    };
    info.build = [](SwapContext ctx, const SchemeParams &params,
                    double scale) {
        FlashSwapConfig fc;
        fc.flashBytes = scaledBytes(
            params.getMiB("flash_mb", fc.flashBytes), scale);
        fc.reclaimBatch =
            params.getU64("reclaim_batch", fc.reclaimBatch);
        return std::make_unique<FlashSwapScheme>(ctx, fc);
    };
    return info;
}

FlashSwapScheme::AppState &
FlashSwapScheme::stateFor(AppId uid)
{
    auto it = std::lower_bound(
        appStates.begin(), appStates.end(), uid,
        [](const std::unique_ptr<AppState> &a, AppId u) {
            return a->uid < u;
        });
    if (it != appStates.end() && (*it)->uid == uid)
        return **it;
    return **appStates.insert(
        it, std::make_unique<AppState>(uid, &lruOpCount));
}

FlashSwapScheme::AppState *
FlashSwapScheme::oldestAppWithPages()
{
    AppState *oldest = nullptr;
    for (const auto &state : appStates) {
        if (state->resident.empty())
            continue;
        if (!oldest || state->lastAccess < oldest->lastAccess)
            oldest = state.get();
    }
    return oldest;
}

void
FlashSwapScheme::onAdmit(PageMeta &page)
{
    AppState &app = stateFor(page.key.uid);
    app.resident.pushFront(page);
    app.lastAccess = ctx.clock.now();
}

void
FlashSwapScheme::onAccess(PageMeta &page)
{
    AppState &app = stateFor(page.key.uid);
    app.resident.touch(page);
    app.lastAccess = ctx.clock.now();
}

std::size_t
FlashSwapScheme::reclaim(std::size_t pages, bool direct)
{
    if (direct)
        ++directRuns;
    std::size_t freed = 0;
    while (freed < pages) {
        AppState *app = oldestAppWithPages();
        if (!app)
            break;
        std::size_t batch = std::min(cfg.reclaimBatch, pages - freed);
        for (std::size_t i = 0; i < batch; ++i) {
            PageMeta *victim = app->resident.popBack();
            if (!victim)
                break;
            FlashSlot slot = flashDev.write(pageSize);
            if (slot == invalidFlashSlot) {
                // Swap space exhausted: data dropped.
                c_swapoutDropped.add();
                telemetry::journeyMark(victim->key.uid,
                                       victim->key.pfn,
                                       telemetry::JourneyStep::Lost,
                                       ctx.clock.now());
                ctx.arena.setLocation(*victim, PageLocation::Lost);
                ++lost;
            } else {
                c_swapout.add();
                // Submission is cheap CPU; the program happens in the
                // device while the CPU runs other work.
                Tick submit = ctx.timing.params().flashSubmitCpuNs;
                ctx.cpu.charge(CpuRole::IoSubmit, submit);
                if (direct)
                    ctx.clock.advance(submit);
                ctx.activity.flashWriteBytes += pageSize;
                telemetry::journeyMark(victim->key.uid,
                                       victim->key.pfn,
                                       telemetry::JourneyStep::Flash,
                                       ctx.clock.now());
                ctx.arena.setLocation(*victim, PageLocation::Flash);
                victim->flashSlot = slot;
            }
            ctx.dram.release(1);
            ++freed;
        }
    }
    chargeLruOps(direct);
    return freed;
}

SwapInResult
FlashSwapScheme::swapIn(PageMeta &page)
{
    panicIf(ctx.arena.location(page) != PageLocation::Flash,
            "FlashSwapScheme::swapIn on non-flash page");
    c_swapin.add();
    telemetry::ScopedTimer timer(d_swapin);
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

    if (!ctx.dram.allocate(1)) {
        reclaim(cfg.reclaimBatch, true);
        panicIf(!ctx.dram.allocate(1),
                "direct reclaim failed to free memory");
    }
    ctx.arena.setLocation(page, PageLocation::Resident);
    AppState &app = stateFor(page.key.uid);
    app.resident.pushFront(page);
    app.lastAccess = ctx.clock.now();
    chargeLruOps(true);

    res.latencyNs = sw.elapsed();
    return res;
}

void
FlashSwapScheme::onFree(PageMeta &page)
{
    switch (ctx.arena.location(page)) {
      case PageLocation::Resident: {
        AppState &app = stateFor(page.key.uid);
        if (app.resident.contains(page))
            app.resident.remove(page);
        ctx.dram.release(1);
        break;
      }
      case PageLocation::Flash:
        flashDev.free(page.flashSlot);
        page.flashSlot = invalidFlashSlot;
        break;
      default:
        break;
    }
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           telemetry::JourneyStep::Free,
                           ctx.clock.now());
    ctx.arena.setLocation(page, PageLocation::Lost);
}

} // namespace ariadne
