/**
 * @file
 * Uncompressed flash swap scheme (the paper's "SWAP" baseline).
 *
 * Reclaimed anonymous pages are written raw to the flash swap
 * partition; faults read them back with readahead clustering. CPU
 * usage is low (the CPU yields during device I/O) but latency and
 * flash wear are high — the trade-off Fig. 2/Fig. 3 quantify.
 */

#ifndef ARIADNE_SWAP_FLASH_SWAP_HH
#define ARIADNE_SWAP_FLASH_SWAP_HH

#include "swap/lru_scheme.hh"
#include "swap/scheme_registry.hh"

namespace ariadne
{

/** Configuration for FlashSwapScheme. */
struct FlashSwapConfig
{
    /** Swap partition capacity. */
    std::size_t flashBytes = std::size_t{8} * 1024 * 1024 * 1024;
};

/** Flash-memory-based swap without compression. */
class FlashSwapScheme : public LruScheme
{
  public:
    FlashSwapScheme(SwapContext context, FlashSwapConfig config);

    std::string name() const override { return "swap"; }

    SwapInResult swapIn(PageMeta &page) override;

    const FlashDevice *flash() const override { return &flashDev; }

  private:
    /** Write one victim page raw to flash (or lose it when full). */
    void evict(PageMeta &victim, bool synchronous) override;

    FlashDevice flashDev;
};

/** Registry entry for `scheme = swap` (see scheme_registry.cc). */
SchemeInfo flashSwapSchemeInfo();

} // namespace ariadne

#endif // ARIADNE_SWAP_FLASH_SWAP_HH
