#include "compress/registry.hh"

#include "compress/lz4.hh"
#include "compress/lzo.hh"
#include "sim/log.hh"

namespace ariadne
{

const char *
codecKindName(CodecKind kind) noexcept
{
    switch (kind) {
      case CodecKind::Lz4: return "lz4";
      case CodecKind::Lzo: return "lzo";
      default: return "unknown";
    }
}

std::unique_ptr<Codec>
makeCodec(CodecKind kind)
{
    switch (kind) {
      case CodecKind::Lz4: return std::make_unique<Lz4Codec>();
      case CodecKind::Lzo: return std::make_unique<LzoCodec>();
    }
    panic("unreachable codec kind");
}

std::vector<CodecKind>
allCodecKinds()
{
    return {CodecKind::Lz4, CodecKind::Lzo};
}

} // namespace ariadne
