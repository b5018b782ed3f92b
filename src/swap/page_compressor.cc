#include "swap/page_compressor.hh"

#include "compress/chunked.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

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

std::size_t
PageCompressor::compressedSize(std::span<const PageRef> unit,
                               const Codec &codec,
                               std::size_t chunk_bytes)
{
    if (unit.empty())
        return 0;
    telemetry::ScopedTimer timer(compressProbe(codec.kind()));
    unitScratch.resize(unit.size() * pageSize);
    for (std::size_t i = 0; i < unit.size(); ++i) {
        content.materialize(unit[i].key, unit[i].version,
                            {unitScratch.data() + i * pageSize,
                             pageSize});
    }
    auto i = static_cast<std::size_t>(codec.kind());
    std::unique_ptr<Codec::BatchState> &state = batchStates[i < 4 ? i : 3];
    if (!state)
        state = codec.makeBatchState();
    std::size_t frame_size = ChunkedFrame::compressInto(
        codec, {unitScratch.data(), unitScratch.size()}, chunk_bytes,
        state.get(), frameScratch, chunkScratch);
    compressedVolume += unitScratch.size();
    return frame_size;
}

} // namespace ariadne
