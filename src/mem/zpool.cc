#include "mem/zpool.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace ariadne
{

Zpool::Zpool(std::size_t capacity_bytes)
    : blockCount(capacity_bytes / blockBytes), freeBlockCount(blockCount)
{
    fatalIf(blockCount == 0, "zpool smaller than one block");
    // All blocks start free; bits past blockCount stay zero forever.
    freeBits.assign((blockCount + 63) / 64, ~std::uint64_t{0});
    if (blockCount % 64)
        freeBits.back() = (std::uint64_t{1} << (blockCount % 64)) - 1;
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

std::uint64_t
Zpool::fullMask(std::size_t clazz) noexcept
{
    std::size_t n_slots = blockBytes / classSlotSize(clazz);
    return n_slots == 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << n_slots) - 1;
}

ZObjectId
Zpool::addObject(const Object &obj)
{
    ZObjectId id;
    if (!freeObjectIds.empty()) {
        id = freeObjectIds.back();
        freeObjectIds.pop_back();
        objects[id] = obj;
    } else {
        id = objects.size();
        objects.push_back(obj);
    }
    sectorObjects.push_back(id);
    stored += obj.csize;
    return id;
}

std::uint32_t
Zpool::takeFreeBlock()
{
    panicIf(freeBlockCount == 0, "takeFreeBlock on full pool");
    std::size_t w = freeScanHint;
    while (freeBits[w] == 0)
        ++w;
    freeScanHint = w;
    auto bit = static_cast<unsigned>(std::countr_zero(freeBits[w]));
    auto idx = static_cast<std::uint32_t>(w * 64 + bit);
    clearBlockFree(idx);
    if (idx >= slotMasks.size())
        slotMasks.resize(idx + 1);
    return idx;
}

namespace
{

/** Bit i set when bits i .. i + span - 1 of @p bits are all set
 * (1 <= span <= 64): shift-AND, doubling the checked length. */
std::uint64_t
runStarts(std::uint64_t bits, std::size_t span) noexcept
{
    for (std::size_t have = 1; have < span;) {
        std::size_t step = std::min(have, span - have);
        bits &= bits >> step;
        have += step;
    }
    return bits;
}

} // namespace

bool
Zpool::findHugeRun(std::size_t span, std::uint32_t &start) const
{
    // First (lowest-start) run of `span` consecutive free blocks. A
    // run enters a word from below (the carried run plus the word's
    // low free bits), lies inside it, or leaves it at the top (its
    // high free bits start the next carry). No word below the hint
    // has a free bit.
    std::size_t run_start = 0;
    std::size_t run_len = 0;
    for (std::size_t w = freeScanHint; w < freeBits.size(); ++w) {
        std::uint64_t bits = freeBits[w];
        if (bits == ~std::uint64_t{0}) {
            if (run_len == 0)
                run_start = w * 64;
            run_len += 64;
            if (run_len >= span) {
                start = static_cast<std::uint32_t>(run_start);
                return true;
            }
            continue;
        }
        auto low = static_cast<std::size_t>(std::countr_one(bits));
        if (run_len != 0 && run_len + low >= span) {
            start = static_cast<std::uint32_t>(run_start);
            return true;
        }
        std::uint64_t inside = span <= 64 ? runStarts(bits, span) : 0;
        if (inside != 0) {
            start = static_cast<std::uint32_t>(w * 64) +
                    static_cast<std::uint32_t>(std::countr_zero(inside));
            return true;
        }
        run_len = static_cast<std::size_t>(std::countl_one(bits));
        run_start = w * 64 + 64 - run_len;
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
Zpool::insert(std::size_t csize, std::uint64_t cookie_value,
              std::uint8_t tag_value)
{
    const Sector sector = sectorObjects.size();
    if (csize > blockBytes) {
        // Huge object: contiguous run of blocks.
        panicIf(csize > maxObjectBytes, "object too large for zpool");
        std::size_t span = (csize + blockBytes - 1) / blockBytes;
        std::uint32_t start;
        if (!findHugeRun(span, start))
            return invalidObject;
        for (std::uint32_t b = start;
             b < start + static_cast<std::uint32_t>(span); ++b)
            clearBlockFree(b);
        return addObject(
            {start, 0, true, static_cast<std::uint8_t>(span),
             static_cast<std::uint32_t>(csize), tag_value, cookie_value,
             sector});
    }

    std::size_t clazz = classIndex(csize);
    std::uint32_t block_idx = openBlock[clazz];
    if (block_idx == UINT32_MAX) {
        if (!partialBlocks[clazz].empty()) {
            block_idx = partialBlocks[clazz].back();
            partialBlocks[clazz].pop_back();
        } else if (freeBlockCount != 0) {
            block_idx = takeFreeBlock();
        } else {
            return invalidObject;
        }
        openBlock[clazz] = block_idx;
    }

    // The lowest free slot; the open block always has one.
    std::uint64_t &mask = slotMasks[block_idx];
    auto slot = static_cast<std::uint16_t>(std::countr_one(mask));
    mask |= std::uint64_t{1} << slot;
    if (mask == fullMask(clazz))
        openBlock[clazz] = UINT32_MAX; // block full
    return addObject({block_idx, slot, true, 0,
                      static_cast<std::uint32_t>(csize), tag_value,
                      cookie_value, sector});
}

void
Zpool::erase(ZObjectId id)
{
    panicIf(!live(id), "erase of dead zpool object");
    Object &obj = objects[id];

    if (obj.span > 0) {
        for (std::uint32_t b = obj.block; b < obj.block + obj.span; ++b)
            setBlockFree(b);
    } else {
        std::size_t clazz = classIndex(obj.csize);
        std::uint64_t &mask = slotMasks[obj.block];
        const bool was_full = mask == fullMask(clazz);
        mask &= ~(std::uint64_t{1} << obj.slot);
        if (mask == 0) {
            // Whole block free again.
            if (openBlock[clazz] == obj.block)
                openBlock[clazz] = UINT32_MAX;
            auto &partial = partialBlocks[clazz];
            partial.erase(std::remove(partial.begin(), partial.end(),
                                      obj.block),
                          partial.end());
            setBlockFree(obj.block);
        } else if (was_full && openBlock[clazz] != obj.block) {
            // Was full, now has one hole: becomes a partial block.
            partialBlocks[clazz].push_back(obj.block);
        }
    }

    sectorObjects[obj.sector] = invalidObject;
    stored -= obj.csize;
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

std::uint8_t
Zpool::tag(ZObjectId id) const
{
    panicIf(!live(id), "tag of dead object");
    return objects[id].tag;
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
    std::size_t ahead = sectorObjects.size() - sector - 1;
    std::size_t end = sector + 1 + std::min(max_gap, ahead);
    for (Sector next = sector + 1; next < end; ++next) {
        if (sectorObjects[next] != invalidObject)
            return sectorObjects[next];
    }
    return invalidObject;
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
