/**
 * @file
 * Compressed-object pool (the kernel's zpool/zsmalloc).
 *
 * Stores variable-size compressed objects inside 4 KB blocks. Objects
 * up to one block are placed in size-class slots (zsmalloc style);
 * larger objects — Ariadne's large-chunk cold units — occupy runs of
 * contiguous blocks.
 *
 * The paper's "ZRAM sector" is the swap-slot offset on the zram block
 * device, which the swap-slot allocator hands out sequentially: pages
 * compressed in one batch receive consecutive sectors regardless of
 * where zsmalloc places their payloads. The pool models this with a
 * monotonically increasing sector sequence per insertion —
 * sectorOf() returns it, and nextInSectorOrder() is exactly the
 * lookup PreDecomp uses to find "the immediate next page of the
 * currently-being-accessed page". The block/size-class machinery
 * still governs capacity and fragmentation.
 *
 * Every structure is flat. Sectors index a vector of handles (one
 * word per insert over the pool's life), a block's slots are the bits
 * of one 64-bit mask, and the block table grows only as blocks are
 * first used, so a pool that stores nothing allocates none of it.
 *
 * Only object sizes and placement are tracked; payload bytes live
 * with the caller when needed (the simulator measures real compressed
 * sizes, then discards buffers to keep host memory bounded).
 */

#ifndef ARIADNE_MEM_ZPOOL_HH
#define ARIADNE_MEM_ZPOOL_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace ariadne
{

/** Handle to an object stored in the zpool. */
using ZObjectId = std::uint64_t;

/** Sentinel for "no object". */
constexpr ZObjectId invalidObject = UINT64_MAX;

/** Size-class allocator over 4 KB blocks with sector numbering. */
class Zpool
{
  public:
    /** Block (and paper "sector") size. */
    static constexpr std::size_t blockBytes = pageSize;

    /** Granularity of size classes for sub-block objects. */
    static constexpr std::size_t classStep = 64;
    static_assert(blockBytes / classStep <= 64,
                  "a block's slots must fit one 64-bit mask");

    /** Largest object insert() stores: a huge object's block run
     * length is one byte, so it spans at most 255 blocks. */
    static constexpr std::size_t maxObjectBytes = 255 * blockBytes;

    /** @param capacity_bytes Total pool size (the paper's S = 3 GB). */
    explicit Zpool(std::size_t capacity_bytes);

    /**
     * Store an object of @p csize bytes; panics above maxObjectBytes.
     * @param cookie Caller-owned tag (schemes store their unit id).
     * @param tag Caller-owned class (the compressed store's spill
     * class).
     * @return handle, or invalidObject when the pool cannot fit it.
     */
    ZObjectId insert(std::size_t csize, std::uint64_t cookie,
                     std::uint8_t tag = 0);

    /** Remove an object and free its slot/blocks. */
    void erase(ZObjectId id);

    /** True if an object of @p csize could be inserted right now. */
    bool canFit(std::size_t csize) const;

    /** Stored (compressed) size of an object. */
    std::size_t objectSize(ZObjectId id) const;

    /** Caller cookie of an object. */
    std::uint64_t cookie(ZObjectId id) const;

    /** Caller class of an object. */
    std::uint8_t tag(ZObjectId id) const;

    /** Swap-device sector assigned to an object at insertion. */
    Sector sectorOf(ZObjectId id) const;

    /** Sectors handed out so far: one per insert, never reused. */
    Sector sectorCount() const noexcept { return sectorObjects.size(); }

    /** The live object at @p sector (below sectorCount()), or
     * invalidObject once it was erased. */
    ZObjectId
    objectAt(Sector sector) const noexcept
    {
        return sectorObjects[sector];
    }

    /**
     * The live object at the next position in sector order, i.e.\ the
     * object compressed soonest after this one that is still stored.
     * @param max_gap Give up when the next live sector is more than
     * this far away (it was not compressed "nearby" in time).
     * @return invalidObject if none found.
     */
    ZObjectId nextInSectorOrder(ZObjectId id,
                                std::size_t max_gap = 8) const;

    /** True when @p id refers to a live object. */
    bool live(ZObjectId id) const noexcept;

    /** Sum of stored object sizes. */
    std::size_t storedBytes() const noexcept { return stored; }

    /** Bytes of blocks currently claimed (occupancy granularity). */
    std::size_t
    usedBytes() const noexcept
    {
        return (blockCount - freeBlockCount) * blockBytes;
    }

    std::size_t capacityBytes() const noexcept
    {
        return blockCount * blockBytes;
    }

    std::size_t
    objectCount() const noexcept
    {
        return objects.size() - freeObjectIds.size();
    }

    /** Internal fragmentation: 1 - stored/used (0 when empty). */
    double fragmentation() const noexcept;

  private:
    /** Class index for a sub-block size. */
    static std::size_t classIndex(std::size_t csize) noexcept;

    /** Slot size of a class. */
    static std::size_t classSlotSize(std::size_t clazz) noexcept;

    /** Occupied-slot mask of a block whose every slot is taken. */
    static std::uint64_t fullMask(std::size_t clazz) noexcept;

    struct Object
    {
        std::uint32_t block = 0;
        std::uint16_t slot = 0;
        bool liveFlag = false;
        std::uint8_t span = 0; //!< >0 marks a huge object
        std::uint32_t csize = 0;
        std::uint8_t tag = 0;
        std::uint64_t cookie = 0;
        Sector sector = invalidSector; //!< swap-slot sequence number
    };

    /** Give a placed object a handle and the next sector. */
    ZObjectId addObject(const Object &obj);
    std::uint32_t takeFreeBlock();
    bool findHugeRun(std::size_t span, std::uint32_t &start) const;

    // Free-block bitmap: first-fit is a find-first-set scan, and
    // huge runs are searched 64 blocks at a time.
    void setBlockFree(std::uint32_t b) noexcept;
    void clearBlockFree(std::uint32_t b) noexcept;

    std::size_t blockCount = 0;
    /** Occupied slots of each sub-block block (bit i = slot i). Grows
     * to cover a block when the block is first used. */
    std::vector<std::uint64_t> slotMasks;
    std::vector<Object> objects;
    std::vector<ZObjectId> freeObjectIds;
    std::vector<std::uint64_t> freeBits; //!< 1 = block free
    std::size_t freeBlockCount = 0;
    /** Lowest word that may contain a free bit: no word below it has
     * one. */
    std::size_t freeScanHint = 0;
    /** Handle of the live object at each sector, or invalidObject. */
    std::vector<ZObjectId> sectorObjects;
    /** Per-class block currently being filled (UINT32_MAX if none). */
    std::vector<std::uint32_t> openBlock;
    /** Per-class blocks with free slots (after erases). */
    std::vector<std::vector<std::uint32_t>> partialBlocks;

    std::size_t stored = 0;
};

} // namespace ariadne

#endif // ARIADNE_MEM_ZPOOL_HH
