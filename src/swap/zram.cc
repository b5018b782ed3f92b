#include "swap/zram.hh"

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

ZramScheme::ZramScheme(SwapContext context, ZramConfig config)
    : LruScheme(context), cfg(config), codec(makeCodec(CodecKind::Lzo)),
      store(context, cfg.zpoolBytes, cfg.writeback ? cfg.flashBytes : 0)
{
}

std::string
ZramScheme::name() const
{
    return cfg.writeback ? "zswap" : "zram";
}

namespace
{

/** Shared schema/factory of the zram and zswap registrations; they
 * differ only in the writeback axis. */
SchemeInfo
zramFamilyInfo(bool writeback)
{
    SchemeInfo info;
    info.key = writeback ? "zswap" : "zram";
    info.displayName = writeback ? "ZSWAP" : "ZRAM";
    info.description =
        writeback ? "ZRAM baseline with ZSWAP-style writeback: "
                    "oldest compressed objects spill to flash when "
                    "the zpool fills"
                  : "state-of-the-art Android baseline: 4 KB "
                    "compression chunks, LRU victims, on-demand "
                    "decompression";
    info.knobs = {
        {"zpool_mb", "mb", "3072", "zpool capacity (paper scale)"},
    };
    info.build = [writeback](SwapContext ctx,
                             const SchemeParams &params, double scale,
                             const std::vector<AppProfile> &) {
        ZramConfig zc;
        zc.writeback = writeback;
        zc.zpoolBytes = scaledBytes(
            params.getMiB("zpool_mb", zc.zpoolBytes), scale);
        zc.flashBytes = scaledBytes(zc.flashBytes, scale);
        return std::make_unique<ZramScheme>(ctx, zc);
    };
    return info;
}

} // namespace

SchemeInfo
zramSchemeInfo()
{
    return zramFamilyInfo(/*writeback=*/false);
}

SchemeInfo
zswapSchemeInfo()
{
    return zramFamilyInfo(/*writeback=*/true);
}

void
ZramScheme::evict(PageMeta &victim, bool synchronous)
{
    PageRef ref{victim.key, victim.version};
    std::size_t csize =
        ctx.compressor.compressedSize({&ref, 1}, *codec, pageSize);
    auto moved = [this](std::uint64_t cookie, FlashSlot slot) {
        auto &page = *reinterpret_cast<PageMeta *>(cookie);
        if (slot == invalidFlashSlot) {
            losePage(page);
            return;
        }
        telemetry::journeyMark(page.key.uid, page.key.pfn,
                               telemetry::JourneyStep::Writeback,
                               ctx.clock.now());
        page.location = PageLocation::Flash;
        page.flashSlot = slot;
        page.objectId = invalidObject;
    };
    if (!store.makeRoom(csize, synchronous, moved)) {
        losePage(victim);
        return;
    }
    ZObjectId obj =
        store.put(csize, reinterpret_cast<std::uint64_t>(&victim),
                  CompressedStore::SpillClass::First);

    telemetry::journeyMark(victim.key.uid, victim.key.pfn,
                           telemetry::JourneyStep::Zram,
                           ctx.clock.now(), csize);
    victim.location = PageLocation::Zpool;
    victim.objectId = obj;
    if (observer)
        observer->onZpoolPut(victim);

    chargeCompression(victim.key.uid, codec->cost(), pageSize,
                      pageSize, csize, synchronous);
}

void
ZramScheme::onBackground(AppId uid)
{
    if (cfg.proactiveFraction <= 0.0)
        return;
    // Proactive periodic compression of the backgrounded app's LRU
    // tail (the vendor behaviour §2.3 describes): frees memory early
    // at the price of extra compression CPU on every switch.
    auto target = static_cast<std::size_t>(
        cfg.proactiveFraction * static_cast<double>(residentPages(uid)));
    Tick before = ctx.cpu.grandTotal();
    evictTail(uid, target, /*synchronous=*/false);
    chargeLruOps();
    bgReclaimNs += ctx.cpu.grandTotal() - before;
}

SwapInResult
ZramScheme::swapIn(PageMeta &page)
{
    telemetry::ScopedSpan span(CompressedStore::swapInSpan());
    SwapInResult res;
    Stopwatch sw(ctx.clock);

    Tick fault = ctx.timing.params().majorFaultBaseNs;
    ctx.cpu.charge(CpuRole::FaultPath, fault);
    ctx.clock.advance(fault);

    std::size_t csize = 0;
    if (page.location == PageLocation::Zpool) {
        csize = store.swapInZpool(page.objectId, observer);
        page.objectId = invalidObject;
    } else if (page.location == PageLocation::Flash) {
        csize = store.swapInFlash(page.flashSlot, 1);
        page.flashSlot = invalidFlashSlot;
        res.fromFlash = true;
    } else {
        panic("ZramScheme::swapIn on page not in zpool/flash");
    }
    chargeDecompression(page.key.uid, codec->cost(), pageSize, pageSize,
                        csize, true);

    // When memory is full, on-demand compression makes room (§2.3,
    // Fig. 2): this is the direct-reclaim cost ZRAM adds to relaunches.
    readmit(page);

    res.latencyNs = sw.elapsed();
    return res;
}

} // namespace ariadne
