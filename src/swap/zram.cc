#include "swap/zram.hh"

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

telemetry::Counter c_compressOut("zram.compress_out");
telemetry::Counter c_writeback("zram.writeback");
telemetry::Counter c_dropped("zram.dropped");
telemetry::Counter c_swapinZpool("zram.swapin_zpool");
telemetry::Counter c_swapinFlash("zram.swapin_flash");
telemetry::SpanProbe d_swapin("zram.swapin");

} // namespace

ZramScheme::ZramScheme(SwapContext context, ZramConfig config)
    : LruScheme(context), cfg(config), codec(makeCodec(CodecKind::Lzo)),
      pool(cfg.zpoolBytes)
{
    if (cfg.writeback)
        flashDev = std::make_unique<FlashDevice>(cfg.flashBytes);
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
                             const SchemeParams &params,
                             double scale) {
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

bool
ZramScheme::ensureZpoolSpace(std::size_t csize, bool synchronous)
{
    while (!pool.canFit(csize)) {
        // Oldest live compressed object; skip stale FIFO entries.
        PageMeta *victim = nullptr;
        ZObjectId obj = invalidObject;
        while (!compressedFifo.empty()) {
            auto [candidate, owner] = compressedFifo.front();
            compressedFifo.pop_front();
            if (pool.live(candidate) &&
                pool.cookie(candidate) ==
                    reinterpret_cast<std::uint64_t>(owner)) {
                obj = candidate;
                victim = const_cast<PageMeta *>(owner);
                break;
            }
        }
        if (!victim)
            return false;

        std::size_t obj_size = pool.objectSize(obj);
        if (cfg.writeback && flashDev) {
            FlashSlot slot = flashDev->write(obj_size);
            if (slot != invalidFlashSlot) {
                Tick submit = ctx.timing.params().flashSubmitCpuNs;
                ctx.cpu.charge(CpuRole::IoSubmit, submit);
                if (synchronous)
                    ctx.clock.advance(submit);
                ctx.activity.flashWriteBytes += obj_size;
                c_writeback.add();
                telemetry::journeyMark(
                    victim->key.uid, victim->key.pfn,
                    telemetry::JourneyStep::Writeback,
                    ctx.clock.now());
                victim->location = PageLocation::Flash;
                victim->flashSlot = slot;
                victim->objectId = invalidObject;
                pool.erase(obj);
                continue;
            }
        }
        // No writeback possible: data is dropped (§2.2 — the system
        // deletes inactive compressed data, risking app termination).
        c_dropped.add();
        telemetry::journeyMark(victim->key.uid, victim->key.pfn,
                               telemetry::JourneyStep::Lost,
                               ctx.clock.now());
        victim->location = PageLocation::Lost;
        victim->objectId = invalidObject;
        ++lost;
        pool.erase(obj);
    }
    return true;
}

void
ZramScheme::evict(PageMeta &victim, bool synchronous)
{
    c_compressOut.add();
    PageRef ref{victim.key, victim.version};
    std::size_t csize =
        ctx.compressor.compressedSize({&ref, 1}, *codec, pageSize);
    if (!ensureZpoolSpace(csize, synchronous)) {
        telemetry::journeyMark(victim.key.uid, victim.key.pfn,
                               telemetry::JourneyStep::Lost,
                               ctx.clock.now());
        victim.location = PageLocation::Lost;
        ++lost;
        return;
    }
    ZObjectId obj =
        pool.insert(csize, reinterpret_cast<std::uint64_t>(&victim));
    panicIf(obj == invalidObject,
            "zpool insert failed after ensureZpoolSpace");

    telemetry::journeyMark(victim.key.uid, victim.key.pfn,
                           telemetry::JourneyStep::Zram,
                           ctx.clock.now(), csize);
    victim.location = PageLocation::Zpool;
    victim.objectId = obj;
    compressedFifo.emplace_back(obj, &victim);
    compLog.push_back(CompressionEvent{victim.key, victim.truth});

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
    telemetry::ScopedSpan span(d_swapin);
    SwapInResult res;
    Stopwatch sw(ctx.clock);

    Tick fault = ctx.timing.params().majorFaultBaseNs;
    ctx.cpu.charge(CpuRole::FaultPath, fault);
    ctx.clock.advance(fault);

    if (page.location == PageLocation::Zpool) {
        c_swapinZpool.add();
        sectorLog.push_back(pool.sectorOf(page.objectId));
        std::size_t csize = pool.objectSize(page.objectId);
        pool.erase(page.objectId);
        page.objectId = invalidObject;
        chargeDecompression(page.key.uid, codec->cost(), pageSize,
                            pageSize, csize, true);
    } else if (page.location == PageLocation::Flash) {
        c_swapinFlash.add();
        panicIf(!flashDev, "flash swap-in without writeback device");
        std::size_t csize = flashDev->read(page.flashSlot);
        flashDev->free(page.flashSlot);
        page.flashSlot = invalidFlashSlot;
        Tick submit = ctx.timing.params().flashSubmitCpuNs;
        ctx.cpu.charge(CpuRole::IoSubmit, submit);
        ctx.clock.advance(submit + ctx.timing.flashReadNs(1));
        ctx.activity.flashReadBytes += csize;
        chargeDecompression(page.key.uid, codec->cost(), pageSize,
                            pageSize, csize, true);
        res.fromFlash = true;
    } else {
        panic("ZramScheme::swapIn on page not in zpool/flash");
    }

    // When memory is full, on-demand compression makes room (§2.3,
    // Fig. 2): this is the direct-reclaim cost ZRAM adds to relaunches.
    readmit(page);

    res.latencyNs = sw.elapsed();
    return res;
}

std::size_t
ZramScheme::compressedStoredBytes() const
{
    std::size_t total = pool.storedBytes();
    if (flashDev)
        total += flashDev->liveBytes();
    return total;
}

} // namespace ariadne
