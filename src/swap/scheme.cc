#include "swap/scheme.hh"

#include "sim/log.hh"
#include "telemetry/journey.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

// Distributions of *modeled* compression work — simulated ns and
// compressed output bytes — recorded where every scheme charges its
// codec costs, so the histograms cover zram, zswap and ariadne
// uniformly, with per-app breakdowns for the leading uids.
telemetry::AppHistogram h_compressNs("swap.compress_ns");
telemetry::AppHistogram h_decompressNs("swap.decompress_ns");
telemetry::AppHistogram h_compressedSize("swap.compressed_size");

} // namespace

void
CompStats::add(const CompStats &o) noexcept
{
    compNs += o.compNs;
    decompNs += o.decompNs;
    inBytes += o.inBytes;
    outBytes += o.outBytes;
    decompBytes += o.decompBytes;
    compOps += o.compOps;
    decompOps += o.decompOps;
}

const CompStats &
SwapScheme::appStats(AppId uid) const
{
    static const CompStats empty;
    auto it = perApp.find(uid);
    return it == perApp.end() ? empty : it->second;
}

CompStats
SwapScheme::totalStats() const
{
    CompStats total;
    for (const auto &[uid, stats] : perApp)
        total.add(stats);
    return total;
}

Tick
SwapScheme::chargeCompression(AppId uid, const CodecCost &cost,
                              std::size_t chunk_bytes,
                              std::size_t in_bytes,
                              std::size_t out_bytes, bool synchronous)
{
    Tick t = ctx.timing.compressNs(cost, chunk_bytes, in_bytes);
    ctx.cpu.charge(CpuRole::Compression, t);
    if (synchronous)
        ctx.clock.advance(t);
    ctx.activity.dramBytes += in_bytes + out_bytes;

    CompStats &stats = perApp[uid];
    stats.compNs += t;
    stats.inBytes += in_bytes;
    stats.outBytes += out_bytes;
    ++stats.compOps;
    h_compressNs.record(uid, t);
    h_compressedSize.record(uid, out_bytes);
    return t;
}

Tick
SwapScheme::chargeDecompression(AppId uid, const CodecCost &cost,
                                std::size_t chunk_bytes,
                                std::size_t out_bytes,
                                std::size_t stored_bytes,
                                bool synchronous)
{
    Tick t = ctx.timing.decompressNs(cost, chunk_bytes, out_bytes);
    ctx.cpu.charge(CpuRole::Decompression, t);
    if (synchronous)
        ctx.clock.advance(t);
    ctx.activity.dramBytes += out_bytes + stored_bytes;

    CompStats &stats = perApp[uid];
    stats.decompNs += t;
    stats.decompBytes += out_bytes;
    ++stats.decompOps;
    h_decompressNs.record(uid, t);
    return t;
}

void
SwapScheme::allocateResident()
{
    if (ctx.dram.allocate(1))
        return;
    reclaim(reclaimBatchPages, /*direct=*/true);
    panicIf(!ctx.dram.allocate(1),
            "direct reclaim failed to free memory");
}

void
SwapScheme::losePage(PageMeta &page)
{
    telemetry::journeyMark(page.key.uid, page.key.pfn,
                           telemetry::JourneyStep::Lost,
                           ctx.clock.now());
    page.location = PageLocation::Lost;
    page.objectId = invalidObject;
    ++lost;
}

void
SwapScheme::chargeLruOps()
{
    std::uint64_t now = lruOpCount;
    if (now <= chargedLruOps)
        return;
    Tick t = (now - chargedLruOps) * ctx.timing.params().lruOpNs;
    chargedLruOps = now;
    ctx.cpu.charge(CpuRole::FaultPath, t);
}

} // namespace ariadne
