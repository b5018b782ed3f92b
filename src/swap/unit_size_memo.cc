#include "swap/unit_size_memo.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/rng.hh"

namespace ariadne
{

namespace
{

// A page reference packs into one word as uid | pfn | version; the
// top byte of a unit's first word numbers its shape.
constexpr unsigned versionBits = 20;
constexpr unsigned pfnBits = 28;
constexpr unsigned uidBits = 8;
constexpr unsigned shapeShift = versionBits + pfnBits + uidBits;
constexpr std::size_t maxShapes = std::size_t{1} << (64 - shapeShift);

/** Initial index slots; the index doubles from here. */
constexpr std::size_t minIndexSlots = 1024;

std::uint64_t
hashOf(std::span<const std::uint64_t> key)
{
    std::uint64_t h = key.size();
    for (std::uint64_t word : key)
        h = mix64(h ^ word);
    return h;
}

} // namespace

void
UnitSizeMemo::bind(const std::vector<AppProfile> &apps)
{
    if (!entries.empty() && !filledUnder(apps))
        clear();
    boundApps = &apps;
}

bool
UnitSizeMemo::filledUnder(const std::vector<AppProfile> &apps) const
{
    return std::equal(apps.begin(), apps.end(), content.begin(),
                      content.end(),
                      [](const AppProfile &app,
                         const std::pair<AppId, ContentMix> &filled) {
                          return app.uid == filled.first &&
                                 app.mix == filled.second;
                      });
}

std::optional<std::size_t>
UnitSizeMemo::find(std::span<const PageRef> unit, CodecKind codec,
                   std::size_t chunk_bytes)
{
    pendingKey.clear();
    if (unit.empty())
        return std::nullopt;
    const Shape shape{codec, chunk_bytes};
    auto known = std::find(shapes.begin(), shapes.end(), shape);
    if (known == shapes.end()) {
        if (shapes.size() == maxShapes)
            return std::nullopt;
        known = shapes.insert(shapes.end(), shape);
    }
    for (const PageRef &ref : unit) {
        if (ref.key.uid >> uidBits || ref.key.pfn >> pfnBits ||
            ref.version >> versionBits) {
            pendingKey.clear();
            return std::nullopt;
        }
        pendingKey.push_back(
            std::uint64_t{ref.key.uid} << (pfnBits + versionBits) |
            ref.key.pfn << versionBits | ref.version);
    }
    pendingKey.front() |=
        static_cast<std::uint64_t>(known - shapes.begin()) << shapeShift;
    pendingHash = hashOf(pendingKey);
    if (index.empty())
        return std::nullopt;
    if (std::uint16_t e = index[slotFor(pendingKey, pendingHash)]) {
        pendingKey.clear();
        return entries[e - 1].frameBytes;
    }
    return std::nullopt;
}

void
UnitSizeMemo::store(std::size_t frame_bytes)
{
    // A full memo keeps what it holds and stores nothing more.
    if (pendingKey.empty() || frame_bytes > UINT32_MAX ||
        entries.size() == maxUnits ||
        refs.size() + pendingKey.size() > maxPageRefs) {
        pendingKey.clear();
        return;
    }
    if (entries.empty()) {
        panicIf(!boundApps, "UnitSizeMemo filled before bind()");
        for (const AppProfile &app : *boundApps)
            content.emplace_back(app.uid, app.mix);
        // Reserved once at the caps: untouched capacity is not
        // resident, while growth by copying would briefly hold both
        // copies.
        entries.reserve(maxUnits);
        refs.reserve(maxPageRefs);
    }
    if ((entries.size() + 1) * 4 > index.size() * 3)
        growIndex();
    index[slotFor(pendingKey, pendingHash)] =
        static_cast<std::uint16_t>(entries.size() + 1);
    entries.push_back({static_cast<std::uint32_t>(refs.size()),
                       static_cast<std::uint32_t>(frame_bytes)});
    refs.insert(refs.end(), pendingKey.begin(), pendingKey.end());
    pendingKey.clear();
}

void
UnitSizeMemo::clear()
{
    entries.clear();
    refs.clear();
    std::fill(index.begin(), index.end(), 0);
    content.clear();
}

std::span<const std::uint64_t>
UnitSizeMemo::keyOf(std::size_t entry) const
{
    std::size_t begin = entries[entry].refsBegin;
    std::size_t end = entry + 1 < entries.size()
                          ? entries[entry + 1].refsBegin
                          : refs.size();
    return {refs.data() + begin, end - begin};
}

std::size_t
UnitSizeMemo::slotFor(std::span<const std::uint64_t> key,
                      std::uint64_t hash) const
{
    const std::size_t mask = index.size() - 1;
    for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
        std::uint16_t e = index[slot];
        if (e == 0 || std::ranges::equal(keyOf(e - 1), key))
            return slot;
    }
}

void
UnitSizeMemo::growIndex()
{
    index.assign(std::max(minIndexSlots, index.size() * 2), 0);
    for (std::size_t e = 0; e < entries.size(); ++e) {
        std::span<const std::uint64_t> key = keyOf(e);
        index[slotFor(key, hashOf(key))] =
            static_cast<std::uint16_t>(e + 1);
    }
}

} // namespace ariadne
