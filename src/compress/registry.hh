/**
 * @file
 * Codec factory.
 *
 * Ariadne "naturally supports different compression algorithms, such
 * as switching between LZO and LZ4" (§4.5). The schemes compress with
 * LZO, as Android's ZRAM does; Fig. 6 also times LZ4.
 */

#ifndef ARIADNE_COMPRESS_REGISTRY_HH
#define ARIADNE_COMPRESS_REGISTRY_HH

#include <memory>
#include <vector>

#include "compress/codec.hh"

namespace ariadne
{

/** Create a codec by kind. */
std::unique_ptr<Codec> makeCodec(CodecKind kind);

/** All codec kinds, for parameterized tests and sweeps. */
std::vector<CodecKind> allCodecKinds();

} // namespace ariadne

#endif // ARIADNE_COMPRESS_REGISTRY_HH
