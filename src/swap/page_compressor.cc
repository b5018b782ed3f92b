#include "swap/page_compressor.hh"

#include "compress/chunked.hh"
#include "swap/unit_size_memo.hh"
#include "telemetry/telemetry.hh"

namespace ariadne
{

namespace
{

// Per-codec host-time compression cost, indexed by CodecKind. These
// are the only probes measuring *real* compression work (the schemes
// charge modeled sim-time separately); page synthesis is a child span.
telemetry::SpanProbe &
compressProbe(CodecKind kind)
{
    static telemetry::SpanProbe probes[] = {
        telemetry::SpanProbe("compressor.compress.lz4"),
        telemetry::SpanProbe("compressor.compress.lzo"),
    };
    return probes[static_cast<std::size_t>(kind)];
}

} // namespace

std::size_t
PageCompressor::compressedSize(std::span<const PageRef> unit,
                               const Codec &codec,
                               std::size_t chunk_bytes)
{
    if (unit.empty())
        return 0;
    if (!memo)
        return compressUnit(unit, codec, chunk_bytes);
    return memo->frameSize(unit, codec.kind(), chunk_bytes, [&] {
        return compressUnit(unit, codec, chunk_bytes);
    });
}

std::size_t
PageCompressor::compressUnit(std::span<const PageRef> unit,
                             const Codec &codec,
                             std::size_t chunk_bytes)
{
    telemetry::ScopedSpan span(compressProbe(codec.kind()));
    unitScratch.resize(unit.size() * pageSize);
    {
        static telemetry::SpanProbe d_synth("compressor.materialize");
        telemetry::ScopedSpan synthesizing(d_synth);
        for (std::size_t i = 0; i < unit.size(); ++i)
            content.materialize(unit[i].key, unit[i].version,
                                {unitScratch.data() + i * pageSize,
                                 pageSize});
    }
    std::unique_ptr<Codec::BatchState> &state =
        batchStates[static_cast<std::size_t>(codec.kind())];
    if (!state)
        state = codec.makeBatchState();
    std::size_t frame_size = ChunkedFrame::compressInto(
        codec, {unitScratch.data(), unitScratch.size()}, chunk_bytes,
        state.get(), frameScratch, chunkScratch);
    compressedVolume += unitScratch.size();
    return frame_size;
}

} // namespace ariadne
