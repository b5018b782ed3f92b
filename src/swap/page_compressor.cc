#include "swap/page_compressor.hh"

#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

telemetry::Counter c_cacheHit("compressor.cache_hit");
telemetry::Counter c_cacheMiss("compressor.cache_miss");

// Per-codec host-time compression cost, indexed by CodecKind. These
// are the only probes measuring *real* compression work (the schemes
// charge modeled sim-time separately).
telemetry::DurationProbe &
compressProbe(CodecKind kind)
{
    static telemetry::DurationProbe probes[] = {
        telemetry::DurationProbe("compressor.compress.lz4"),
        telemetry::DurationProbe("compressor.compress.lzo"),
        telemetry::DurationProbe("compressor.compress.bdi"),
        telemetry::DurationProbe("compressor.compress.null"),
    };
    auto i = static_cast<std::size_t>(kind);
    return probes[i < 4 ? i : 3];
}

} // namespace

PageCompressor::Slot &
PageCompressor::findSlot(std::uint64_t pfn_key, std::uint64_t app_key,
                         std::uint64_t codec_key) noexcept
{
    std::size_t mask = slots.size() - 1;
    std::size_t idx = static_cast<std::size_t>(
                          mixSlotHash(pfn_key, app_key, codec_key)) &
                      mask;
    for (;;) {
        Slot &slot = slots[idx];
        if (slot.codecKey == emptyKey ||
            (slot.pfnKey == pfn_key && slot.appKey == app_key &&
             slot.codecKey == codec_key)) {
            return slot;
        }
        idx = (idx + 1) & mask;
    }
}

void
PageCompressor::growTable()
{
    std::vector<Slot> old = std::move(slots);
    slots.assign(old.size() * 2, Slot{});
    for (const Slot &slot : old) {
        if (slot.codecKey == emptyKey)
            continue;
        findSlot(slot.pfnKey, slot.appKey, slot.codecKey) = slot;
    }
}

Codec::BatchState *
PageCompressor::batchStateFor(const Codec &codec)
{
    auto i = static_cast<std::size_t>(codec.kind());
    BatchSlot &slot = batchStates[i < 4 ? i : 3];
    if (!slot.made) {
        slot.state = codec.makeBatchState();
        slot.made = true;
    }
    return slot.state.get();
}

std::uint32_t
PageCompressor::compressMiss(const PageRef &page, const Codec &codec,
                             std::size_t chunk_bytes)
{
    telemetry::ScopedTimer timer(compressProbe(codec.kind()));
    content.materialize(page.key, page.version,
                        {scratch.data(), scratch.size()});
    std::size_t frame_size = ChunkedFrame::compressInto(
        codec, {scratch.data(), scratch.size()}, chunk_bytes,
        batchStateFor(codec), frameScratch, chunkScratch);
    compressedVolume += pageSize;
    return static_cast<std::uint32_t>(frame_size);
}

std::size_t
PageCompressor::compressedSizeOne(const PageRef &page,
                                  const Codec &codec,
                                  std::size_t chunk_bytes)
{
    std::uint64_t pfn_key = page.key.pfn;
    std::uint64_t app_key =
        (std::uint64_t{page.key.uid} << 32) | page.version;
    std::uint64_t codec_key =
        (std::uint64_t{static_cast<std::uint8_t>(codec.kind())}
         << 32) |
        static_cast<std::uint32_t>(chunk_bytes);

    Slot &slot = findSlot(pfn_key, app_key, codec_key);
    if (slot.codecKey != emptyKey) {
        c_cacheHit.add();
        ++hits;
        return slot.csize;
    }
    c_cacheMiss.add();
    ++misses;

    std::uint32_t csize = compressMiss(page, codec, chunk_bytes);
    slot = Slot{pfn_key, app_key, codec_key, csize};
    if (++liveSlots * 10 >= slots.size() * 7)
        growTable();
    return csize;
}

void
PageCompressor::compressedSizeEach(const std::vector<PageRef> &pages,
                                   const Codec &codec,
                                   std::size_t chunk_bytes,
                                   std::vector<std::size_t> &sizes)
{
    sizes.resize(pages.size());
    // One probe-and-compress loop for the whole batch: the codec key
    // is loop-invariant and every miss shares the scratch buffer.
    std::uint64_t codec_key =
        (std::uint64_t{static_cast<std::uint8_t>(codec.kind())}
         << 32) |
        static_cast<std::uint32_t>(chunk_bytes);
    for (std::size_t i = 0; i < pages.size(); ++i) {
        const PageRef &page = pages[i];
        std::uint64_t pfn_key = page.key.pfn;
        std::uint64_t app_key =
            (std::uint64_t{page.key.uid} << 32) | page.version;
        Slot &slot = findSlot(pfn_key, app_key, codec_key);
        if (slot.codecKey != emptyKey) {
            c_cacheHit.add();
            ++hits;
            sizes[i] = slot.csize;
            continue;
        }
        c_cacheMiss.add();
        ++misses;
        std::uint32_t csize = compressMiss(page, codec, chunk_bytes);
        slot = Slot{pfn_key, app_key, codec_key, csize};
        sizes[i] = csize;
        if (++liveSlots * 10 >= slots.size() * 7)
            growTable();
    }
}

std::size_t
PageCompressor::compressedSizeMany(const std::vector<PageRef> &pages,
                                   const Codec &codec,
                                   std::size_t chunk_bytes)
{
    if (pages.empty())
        return 0;
    telemetry::ScopedTimer timer(compressProbe(codec.kind()));
    manyScratch.resize(pages.size() * pageSize);
    for (std::size_t i = 0; i < pages.size(); ++i) {
        content.materialize(pages[i].key, pages[i].version,
                            {manyScratch.data() + i * pageSize,
                             pageSize});
    }
    std::size_t frame_size = ChunkedFrame::compressInto(
        codec, {manyScratch.data(), manyScratch.size()}, chunk_bytes,
        batchStateFor(codec), frameScratch, chunkScratch);
    compressedVolume += manyScratch.size();
    return frame_size;
}

} // namespace ariadne
