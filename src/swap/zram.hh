/**
 * @file
 * Baseline ZRAM scheme (state of the art in the paper, §2.2/§5).
 *
 * Reproduces modern Android behaviour: single-page (4 KB) compression
 * chunks, LRU victim selection with per-application page grouping and
 * an LRU order across applications, on-demand decompression only (no
 * speculation), and a zpool of configurable size S. With `writeback`
 * enabled the scheme becomes ZSWAP: when the zpool fills, the oldest
 * compressed objects spill to the flash swap space instead of being
 * dropped.
 */

#ifndef ARIADNE_SWAP_ZRAM_HH
#define ARIADNE_SWAP_ZRAM_HH

#include <memory>

#include "compress/registry.hh"
#include "swap/compressed_store.hh"
#include "swap/lru_scheme.hh"
#include "swap/scheme_registry.hh"

namespace ariadne
{

/** Configuration for ZramScheme. */
struct ZramConfig
{
    /** zpool capacity (the paper's S = 3 GB, scaled by callers). */
    std::size_t zpoolBytes = std::size_t{3} * 1024 * 1024 * 1024;
    /** Enable ZSWAP-style writeback of compressed data to flash. */
    bool writeback = false;
    /** Flash swap-space capacity (used when writeback is on). */
    std::size_t flashBytes = std::size_t{8} * 1024 * 1024 * 1024;

    /**
     * Fraction of a backgrounded app's resident pages compressed
     * proactively (vendors "aggressively free up memory by
     * proactively and periodically compressing data", §2.3). This is
     * CPU the ZRAM baseline pays on every app switch.
     */
    double proactiveFraction = 0.03;
};

/** The state-of-the-art compressed swap baseline. */
class ZramScheme : public LruScheme
{
  public:
    ZramScheme(SwapContext context, ZramConfig config);

    std::string name() const override;

    SwapInResult swapIn(PageMeta &page) override;
    void onBackground(AppId uid) override;

    std::size_t
    compressedStoredBytes() const override
    {
        return store.storedBytes();
    }
    const Zpool *zpool() const override { return &store.zpool(); }
    const FlashDevice *flash() const override { return store.flash(); }

  private:
    /** Compress one victim page into the store (or lose it). */
    void evict(PageMeta &victim, bool synchronous) override;

    ZramConfig cfg;
    std::unique_ptr<Codec> codec;
    /** Objects are single pages; a cookie is the page's address. */
    CompressedStore store;
};

/** Registry entry for `scheme = zram` (see scheme_registry.cc). */
SchemeInfo zramSchemeInfo();

/** Registry entry for `scheme = zswap` (ZramScheme with flash
 * writeback enabled). */
SchemeInfo zswapSchemeInfo();

} // namespace ariadne

#endif // ARIADNE_SWAP_ZRAM_HH
