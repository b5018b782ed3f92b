#include "core/adaptive_comp.hh"

#include "sim/log.hh"

namespace ariadne
{

UnitId
AdaptiveComp::create(std::vector<PageMeta *> pages,
                     std::size_t chunk_bytes, std::size_t csize,
                     Hotness level, ZObjectId object)
{
    panicIf(pages.empty(), "compression unit with no pages");
    UnitId id;
    if (!freeIds.empty()) {
        id = freeIds.back();
        freeIds.pop_back();
    } else {
        units.emplace_back();
        id = units.size() - 1;
    }
    CompUnit &u = units[id];
    u.pages = std::move(pages);
    u.chunkBytes = chunk_bytes;
    u.csize = csize;
    u.levelAtCompression = level;
    u.object = object;
    u.liveFlag = true;
    ++liveUnits;

    for (PageMeta *p : u.pages)
        p->objectId = id;
    return id;
}

CompUnit &
AdaptiveComp::unit(UnitId id)
{
    panicIf(!live(id), "access to dead compression unit");
    return units[id];
}

const CompUnit &
AdaptiveComp::unit(UnitId id) const
{
    panicIf(!live(id), "access to dead compression unit");
    return units[id];
}

bool
AdaptiveComp::live(UnitId id) const noexcept
{
    return id < units.size() && units[id].liveFlag;
}

void
AdaptiveComp::destroy(UnitId id)
{
    CompUnit &u = unit(id);
    u.liveFlag = false;
    u.pages.clear();
    u.object = invalidObject;
    freeIds.push_back(id);
    --liveUnits;
}

} // namespace ariadne
