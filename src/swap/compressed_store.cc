#include "swap/compressed_store.hh"

#include "sim/log.hh"
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

CompressedStore::CompressedStore(SwapContext context,
                                 std::size_t zpool_bytes,
                                 std::size_t flash_bytes)
    : ctx(context), pool(zpool_bytes)
{
    if (flash_bytes)
        flashDev = std::make_unique<FlashDevice>(flash_bytes);
}

const telemetry::SpanProbe &
CompressedStore::swapInSpan() noexcept
{
    return d_swapin;
}

ZObjectId
CompressedStore::oldest()
{
    for (std::size_t cls = 0; cls < cursors.size(); ++cls) {
        for (Sector &at = cursors[cls]; at < pool.sectorCount(); ++at) {
            ZObjectId obj = pool.objectAt(at);
            if (obj != invalidObject && pool.tag(obj) == cls)
                return obj;
        }
    }
    return invalidObject;
}

FlashSlot
CompressedStore::spill(ZObjectId obj, bool synchronous)
{
    std::size_t csize = pool.objectSize(obj);
    pool.erase(obj);
    FlashSlot slot = flashDev ? flashDev->write(csize) : invalidFlashSlot;
    if (slot == invalidFlashSlot) {
        // No writeback possible: the data is dropped (§2.2: the system
        // deletes inactive compressed data, risking app termination).
        c_dropped.add();
        return slot;
    }
    c_writeback.add();
    Tick submit = ctx.timing.params().flashSubmitCpuNs;
    ctx.cpu.charge(CpuRole::IoSubmit, submit);
    if (synchronous)
        ctx.clock.advance(submit);
    ctx.activity.flashWriteBytes += csize;
    return slot;
}

ZObjectId
CompressedStore::put(std::size_t csize, std::uint64_t cookie,
                     SpillClass spill_class)
{
    c_compressOut.add();
    ZObjectId obj =
        pool.insert(csize, cookie, static_cast<std::uint8_t>(spill_class));
    panicIf(obj == invalidObject, "zpool insert failed after makeRoom");
    return obj;
}

std::size_t
CompressedStore::swapInZpool(ZObjectId obj, SystemObserver *observer)
{
    c_swapinZpool.add();
    if (observer)
        observer->onZpoolSwapIn(pool.sectorOf(obj));
    std::size_t csize = pool.objectSize(obj);
    pool.erase(obj);
    return csize;
}

std::size_t
CompressedStore::swapInFlash(FlashSlot slot, std::size_t wait_pages)
{
    panicIf(!flashDev, "flash swap-in without a flash tier");
    c_swapinFlash.add();
    std::size_t csize = flashDev->read(slot);
    flashDev->free(slot);
    Tick submit = ctx.timing.params().flashSubmitCpuNs;
    ctx.cpu.charge(CpuRole::IoSubmit, submit);
    ctx.clock.advance(submit + ctx.timing.flashReadNs(wait_pages));
    ctx.activity.flashReadBytes += csize;
    return csize;
}

} // namespace ariadne
