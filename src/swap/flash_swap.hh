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

#include <memory>
#include <vector>

#include "mem/lru_list.hh"
#include "swap/scheme.hh"
#include "swap/scheme_registry.hh"

namespace ariadne
{

/** Configuration for FlashSwapScheme. */
struct FlashSwapConfig
{
    /** Swap partition capacity. */
    std::size_t flashBytes = std::size_t{8} * 1024 * 1024 * 1024;
    /** Pages written per reclaim batch. */
    std::size_t reclaimBatch = 32;
};

/** Flash-memory-based swap without compression. */
class FlashSwapScheme : public SwapScheme
{
  public:
    FlashSwapScheme(SwapContext context, FlashSwapConfig config);

    std::string name() const override { return "swap"; }

    void onAdmit(PageMeta &page) override;
    void onAccess(PageMeta &page) override;
    SwapInResult swapIn(PageMeta &page) override;
    void onFree(PageMeta &page) override;
    std::size_t reclaim(std::size_t pages, bool direct) override;

    const FlashDevice *flash() const override { return &flashDev; }

  private:
    struct AppState
    {
        AppState(AppId uid_, std::uint64_t *ops)
            : uid(uid_), resident(ops)
        {}
        AppId uid;
        LruList resident;
        Tick lastAccess = 0;
    };

    AppState &stateFor(AppId uid);
    AppState *oldestAppWithPages();

    FlashSwapConfig cfg;
    FlashDevice flashDev;
    /** Sorted by uid (intrusive list heads need stable addresses,
     * hence unique_ptr; scans run in uid order like std::map did). */
    std::vector<std::unique_ptr<AppState>> appStates;
};

/** Registry entry for `scheme = swap` (see scheme_registry.cc). */
SchemeInfo flashSwapSchemeInfo();

} // namespace ariadne

#endif // ARIADNE_SWAP_FLASH_SWAP_HH
