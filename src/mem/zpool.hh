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
 * Only object sizes and placement are tracked; payload bytes live
 * with the caller when needed (the simulator measures real compressed
 * sizes, then discards buffers to keep host memory bounded).
 */

#ifndef ARIADNE_MEM_ZPOOL_HH
#define ARIADNE_MEM_ZPOOL_HH

#include <cstdint>
#include <map>
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

    /** Largest object insert() stores: a huge object's block run
     * length is one byte, so it spans at most 255 blocks. */
    static constexpr std::size_t maxObjectBytes = 255 * blockBytes;

    /** @param capacity_bytes Total pool size (the paper's S = 3 GB). */
    explicit Zpool(std::size_t capacity_bytes);

    /**
     * Store an object of @p csize bytes; panics above maxObjectBytes.
     * @param cookie Caller-owned tag (schemes store their unit id).
     * @return handle, or invalidObject when the pool cannot fit it.
     */
    ZObjectId insert(std::size_t csize, std::uint64_t cookie);

    /** Remove an object and free its slot/blocks. */
    void erase(ZObjectId id);

    /** True if an object of @p csize could be inserted right now. */
    bool canFit(std::size_t csize) const;

    /** Stored (compressed) size of an object. */
    std::size_t objectSize(ZObjectId id) const;

    /** Caller cookie of an object. */
    std::uint64_t cookie(ZObjectId id) const;

    /** Swap-device sector assigned to an object at insertion. */
    Sector sectorOf(ZObjectId id) const;

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
        return usedBlocks * blockBytes;
    }

    std::size_t capacityBytes() const noexcept
    {
        return blocks.size() * blockBytes;
    }

    std::size_t objectCount() const noexcept { return liveObjects; }

    /** Internal fragmentation: 1 - stored/used (0 when empty). */
    double fragmentation() const noexcept;

  private:
    /** Class index for a sub-block size. */
    static std::size_t classIndex(std::size_t csize) noexcept;

    /** Slot size of a class. */
    static std::size_t classSlotSize(std::size_t clazz) noexcept;

    static constexpr std::int16_t freeClass = -1;
    static constexpr std::int16_t hugeHeadClass = -2;
    static constexpr std::int16_t hugeContClass = -3;

    struct Block
    {
        std::int16_t clazz = freeClass;
        std::uint16_t usedSlots = 0;
        std::uint8_t span = 0; //!< block run length for huge heads
        std::vector<ZObjectId> slots;
    };

    struct Object
    {
        std::uint32_t block = 0;
        std::uint16_t slot = 0;
        bool liveFlag = false;
        std::uint8_t span = 0; //!< >0 marks a huge object
        std::uint32_t csize = 0;
        std::uint64_t cookie = 0;
        Sector sector = invalidSector; //!< swap-slot sequence number
    };

    ZObjectId allocObjectRecord();
    std::uint32_t takeFreeBlock();
    bool findHugeRun(std::size_t span, std::uint32_t &start) const;

    // Free-block bitmap. Allocation order (ascending first-fit) and
    // run search match the old std::set<uint32_t> exactly, but
    // construction is O(blocks/64) memsets instead of a red-black
    // insert per block — which the fleet profile showed dominating
    // short sessions — and first-fit is a find-first-set scan.
    void setBlockFree(std::uint32_t b) noexcept;
    void clearBlockFree(std::uint32_t b) noexcept;

    std::vector<Block> blocks;
    std::vector<Object> objects;
    std::vector<ZObjectId> freeObjectIds;
    std::vector<std::uint64_t> freeBits; //!< 1 = block free
    std::size_t freeBlockCount = 0;
    /** Lowest word that may contain a free bit (search hint). */
    mutable std::size_t freeScanHint = 0;
    /** Live objects ordered by swap sector. */
    std::map<Sector, ZObjectId> sectorOrder;
    /** Next swap sector to hand out. */
    Sector nextSector = 0;
    /** Per-class block currently being filled (UINT32_MAX if none). */
    std::vector<std::uint32_t> openBlock;
    /** Per-class blocks with free slots (after erases). */
    std::vector<std::vector<std::uint32_t>> partialBlocks;

    std::size_t stored = 0;
    std::size_t usedBlocks = 0;
    std::size_t liveObjects = 0;
};

} // namespace ariadne

#endif // ARIADNE_MEM_ZPOOL_HH
