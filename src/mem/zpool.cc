#include "mem/zpool.hh"

#include <algorithm>

#include "sim/log.hh"

namespace ariadne
{

Zpool::Zpool(std::size_t capacity_bytes)
{
    std::size_t n_blocks = capacity_bytes / blockBytes;
    fatalIf(n_blocks == 0, "zpool smaller than one block");
    blocks.resize(n_blocks);
    // All blocks start free; bits past n_blocks stay zero forever.
    freeBits.assign((n_blocks + 63) / 64, ~std::uint64_t{0});
    if (n_blocks % 64)
        freeBits.back() = (std::uint64_t{1} << (n_blocks % 64)) - 1;
    freeBlockCount = n_blocks;
    std::size_t n_classes = blockBytes / classStep;
    openBlock.assign(n_classes, UINT32_MAX);
    partialBlocks.resize(n_classes);
}

void
Zpool::setBlockFree(std::uint32_t b) noexcept
{
    freeBits[b >> 6] |= std::uint64_t{1} << (b & 63);
    ++freeBlockCount;
    if ((b >> 6) < freeScanHint)
        freeScanHint = b >> 6;
}

void
Zpool::clearBlockFree(std::uint32_t b) noexcept
{
    freeBits[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    --freeBlockCount;
}

std::size_t
Zpool::classIndex(std::size_t csize) noexcept
{
    if (csize == 0)
        csize = 1;
    return (csize + classStep - 1) / classStep - 1;
}

std::size_t
Zpool::classSlotSize(std::size_t clazz) noexcept
{
    return (clazz + 1) * classStep;
}

ZObjectId
Zpool::allocObjectRecord()
{
    if (!freeObjectIds.empty()) {
        ZObjectId id = freeObjectIds.back();
        freeObjectIds.pop_back();
        return id;
    }
    objects.emplace_back();
    return objects.size() - 1;
}

std::uint32_t
Zpool::takeFreeBlock()
{
    panicIf(freeBlockCount == 0, "takeFreeBlock on full pool");
    std::size_t w = freeScanHint;
    while (freeBits[w] == 0)
        ++w;
    freeScanHint = w;
    auto bit = static_cast<unsigned>(__builtin_ctzll(freeBits[w]));
    auto idx = static_cast<std::uint32_t>(w * 64 + bit);
    clearBlockFree(idx);
    ++usedBlocks;
    return idx;
}

bool
Zpool::findHugeRun(std::size_t span, std::uint32_t &start) const
{
    // First (lowest-start) run of `span` consecutive free blocks,
    // same answer the old ascending-set scan gave. Whole zero/one
    // words are consumed 64 blocks at a time.
    std::uint32_t run_start = 0;
    std::size_t run_len = 0;
    for (std::size_t w = 0; w < freeBits.size(); ++w) {
        std::uint64_t bits = freeBits[w];
        if (bits == 0) {
            run_len = 0;
            continue;
        }
        if (bits == ~std::uint64_t{0}) {
            if (run_len == 0)
                run_start = static_cast<std::uint32_t>(w * 64);
            run_len += 64;
            if (run_len >= span) {
                start = run_start;
                return true;
            }
            continue;
        }
        for (unsigned b = 0; b < 64; ++b) {
            if ((bits >> b) & 1) {
                if (run_len == 0)
                    run_start =
                        static_cast<std::uint32_t>(w * 64 + b);
                if (++run_len >= span) {
                    start = run_start;
                    return true;
                }
            } else {
                run_len = 0;
            }
        }
    }
    return false;
}

bool
Zpool::canFit(std::size_t csize) const
{
    if (csize > blockBytes) {
        std::size_t span = (csize + blockBytes - 1) / blockBytes;
        std::uint32_t start;
        return findHugeRun(span, start);
    }
    std::size_t clazz = classIndex(csize);
    if (openBlock[clazz] != UINT32_MAX)
        return true;
    if (!partialBlocks[clazz].empty())
        return true;
    return freeBlockCount != 0;
}

ZObjectId
Zpool::insert(std::size_t csize, std::uint64_t cookie_value)
{
    if (csize > blockBytes) {
        // Huge object: contiguous run of blocks.
        panicIf(csize > maxObjectBytes, "object too large for zpool");
        std::size_t span = (csize + blockBytes - 1) / blockBytes;
        std::uint32_t start;
        if (!findHugeRun(span, start))
            return invalidObject;
        for (std::uint32_t b = start;
             b < start + static_cast<std::uint32_t>(span); ++b) {
            clearBlockFree(b);
            ++usedBlocks;
            blocks[b].clazz =
                (b == start) ? hugeHeadClass : hugeContClass;
            blocks[b].usedSlots = 1;
        }
        ZObjectId id = allocObjectRecord();
        Object &obj = objects[id];
        obj = Object{start, 0, true, static_cast<std::uint8_t>(span),
                     static_cast<std::uint32_t>(csize), cookie_value,
                     nextSector};
        sectorOrder.emplace(nextSector, id);
        ++nextSector;
        blocks[start].span = static_cast<std::uint8_t>(span);
        blocks[start].slots.assign(1, id);
        stored += csize;
        ++liveObjects;
        return id;
    }

    std::size_t clazz = classIndex(csize);
    std::uint32_t block_idx = UINT32_MAX;

    if (openBlock[clazz] != UINT32_MAX) {
        block_idx = openBlock[clazz];
    } else if (!partialBlocks[clazz].empty()) {
        block_idx = partialBlocks[clazz].back();
        partialBlocks[clazz].pop_back();
        openBlock[clazz] = block_idx;
    } else if (freeBlockCount != 0) {
        block_idx = takeFreeBlock();
        Block &blk = blocks[block_idx];
        blk.clazz = static_cast<std::int16_t>(clazz);
        blk.usedSlots = 0;
        blk.slots.assign(blockBytes / classSlotSize(clazz),
                         invalidObject);
        openBlock[clazz] = block_idx;
    } else {
        return invalidObject;
    }

    Block &blk = blocks[block_idx];
    // Find a free slot; the open block always has one.
    std::uint16_t slot = 0;
    for (; slot < blk.slots.size(); ++slot) {
        if (blk.slots[slot] == invalidObject)
            break;
    }
    panicIf(slot >= blk.slots.size(), "open block has no free slot");

    ZObjectId id = allocObjectRecord();
    objects[id] = Object{block_idx, slot, true, 0,
                         static_cast<std::uint32_t>(csize),
                         cookie_value, nextSector};
    sectorOrder.emplace(nextSector, id);
    ++nextSector;
    blk.slots[slot] = id;
    ++blk.usedSlots;
    if (blk.usedSlots == blk.slots.size())
        openBlock[clazz] = UINT32_MAX; // block full
    stored += csize;
    ++liveObjects;
    return id;
}

void
Zpool::erase(ZObjectId id)
{
    panicIf(!live(id), "erase of dead zpool object");
    Object &obj = objects[id];

    if (obj.span > 0) {
        for (std::uint32_t b = obj.block;
             b < obj.block + obj.span; ++b) {
            blocks[b].clazz = freeClass;
            blocks[b].usedSlots = 0;
            blocks[b].span = 0;
            blocks[b].slots.clear();
            setBlockFree(b);
            --usedBlocks;
        }
    } else {
        Block &blk = blocks[obj.block];
        std::size_t clazz = static_cast<std::size_t>(blk.clazz);
        blk.slots[obj.slot] = invalidObject;
        --blk.usedSlots;
        if (blk.usedSlots == 0) {
            // Whole block free again.
            if (openBlock[clazz] == obj.block)
                openBlock[clazz] = UINT32_MAX;
            auto &partial = partialBlocks[clazz];
            partial.erase(std::remove(partial.begin(), partial.end(),
                                      obj.block),
                          partial.end());
            blk.clazz = freeClass;
            blk.slots.clear();
            setBlockFree(obj.block);
            --usedBlocks;
        } else if (blk.usedSlots + 1 ==
                       static_cast<std::uint16_t>(blk.slots.size()) &&
                   openBlock[clazz] != obj.block) {
            // Was full, now has one hole: becomes a partial block.
            partialBlocks[clazz].push_back(obj.block);
        }
    }

    sectorOrder.erase(obj.sector);
    stored -= obj.csize;
    --liveObjects;
    obj.liveFlag = false;
    freeObjectIds.push_back(id);
}

bool
Zpool::live(ZObjectId id) const noexcept
{
    return id < objects.size() && objects[id].liveFlag;
}

std::size_t
Zpool::objectSize(ZObjectId id) const
{
    panicIf(!live(id), "objectSize of dead object");
    return objects[id].csize;
}

std::uint64_t
Zpool::cookie(ZObjectId id) const
{
    panicIf(!live(id), "cookie of dead object");
    return objects[id].cookie;
}

Sector
Zpool::sectorOf(ZObjectId id) const
{
    panicIf(!live(id), "sectorOf dead object");
    return objects[id].sector;
}

ZObjectId
Zpool::nextInSectorOrder(ZObjectId id, std::size_t max_gap) const
{
    panicIf(!live(id), "nextInSectorOrder of dead object");
    Sector sector = objects[id].sector;
    auto it = sectorOrder.upper_bound(sector);
    if (it == sectorOrder.end())
        return invalidObject;
    if (it->first - sector > max_gap)
        return invalidObject;
    return it->second;
}

double
Zpool::fragmentation() const noexcept
{
    std::size_t used = usedBytes();
    if (used == 0)
        return 0.0;
    return 1.0 - static_cast<double>(stored) /
                     static_cast<double>(used);
}

} // namespace ariadne
