/**
 * @file
 * The compressed store under ZRAM, ZSWAP and Ariadne: the zpool, an
 * optional flash tier, and the order in which objects leave the zpool.
 *
 * A scheme puts one object per compressed unit (a page under ZRAM, a
 * CompUnit under Ariadne); the object's cookie names the unit. To make
 * room, the store spills the oldest objects in zpool sector order,
 * every SpillClass::First object before any Later one (Ariadne's "cold
 * data is swapped out first", §4.2), writing each back to flash or
 * dropping it when there is no flash or it is full. A sector is never
 * reused, so a recycled cookie waits its turn. The `zram.*` counters
 * and the `zram.swapin` span are the store's.
 */

#ifndef ARIADNE_SWAP_COMPRESSED_STORE_HH
#define ARIADNE_SWAP_COMPRESSED_STORE_HH

#include <array>
#include <memory>

#include "swap/scheme.hh"

namespace ariadne
{

namespace telemetry
{
class SpanProbe;
}

/** zpool plus optional flash tier, spilled in sector order. */
class CompressedStore
{
  public:
    /** Spill queue of an object; each queue runs in sector order. */
    enum class SpillClass : std::uint8_t { First, Later };

    /** @param flash_bytes Flash tier capacity; 0 for none. */
    CompressedStore(SwapContext context, std::size_t zpool_bytes,
                    std::size_t flash_bytes);

    /**
     * Spill objects until one of @p csize fits, calling
     * @p moved(cookie, slot) for each: @p slot is its flash slot, or
     * invalidFlashSlot when it was dropped. Writeback submits advance
     * the clock when @p synchronous.
     * @return false when nothing is left to spill.
     */
    template <class Moved>
    bool
    makeRoom(std::size_t csize, bool synchronous, Moved &&moved)
    {
        while (!pool.canFit(csize)) {
            ZObjectId obj = oldest();
            if (obj == invalidObject)
                return false;
            std::uint64_t cookie = pool.cookie(obj);
            moved(cookie, spill(obj, synchronous));
        }
        return true;
    }

    /** Insert an object that makeRoom() made room for. */
    ZObjectId put(std::size_t csize, std::uint64_t cookie,
                  SpillClass spill_class);

    /** Take @p obj out of the zpool on a fault, telling @p observer
     * (when set) its sector. @return its size. */
    std::size_t swapInZpool(ZObjectId obj, SystemObserver *observer);

    /** Read and free @p slot on a fault, which waits for the submit
     * and a read of @p wait_pages pages. @return its size. */
    std::size_t swapInFlash(FlashSlot slot, std::size_t wait_pages);

    /** Erase @p obj that PreDecomp already decompressed. */
    void discard(ZObjectId obj) { pool.erase(obj); }

    const Zpool &zpool() const noexcept { return pool; }

    const FlashDevice *flash() const noexcept { return flashDev.get(); }

    /** Compressed bytes in the zpool and on flash. */
    std::size_t
    storedBytes() const noexcept
    {
        return pool.storedBytes() + (flashDev ? flashDev->liveBytes() : 0);
    }

    /** Times a scheme's whole swap-in (`zram.swapin`). */
    static const telemetry::SpanProbe &swapInSpan() noexcept;

  private:
    /** Oldest live object of the first non-empty spill queue. */
    ZObjectId oldest();

    /** Erase @p obj and write it back. @return its flash slot, or
     * invalidFlashSlot when it was dropped. */
    FlashSlot spill(ZObjectId obj, bool synchronous);

    SwapContext ctx;
    Zpool pool;
    std::unique_ptr<FlashDevice> flashDev;
    /** Per spill class, the lowest sector that may hold its oldest
     * object. */
    std::array<Sector, 2> cursors{};
};

} // namespace ariadne

#endif // ARIADNE_SWAP_COMPRESSED_STORE_HH
