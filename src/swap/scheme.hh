/**
 * @file
 * Swap-scheme interface and shared machinery.
 *
 * A SwapScheme decides where anonymous pages live (resident, zpool,
 * flash), picks reclaim victims, and services swap-in faults. The
 * surrounding MobileSystem drives it through page admissions, touches
 * and reclaim requests. Four implementations reproduce the paper's
 * evaluated configurations: DramOnlyScheme (ideal "DRAM"),
 * FlashSwapScheme ("SWAP"), ZramScheme ("ZRAM", optionally with
 * ZSWAP-style writeback) and core/AriadneScheme. FlashSwapScheme and
 * ZramScheme share their per-app LRU reclaim through LruScheme
 * (lru_scheme.hh); ZramScheme and AriadneScheme keep their compressed
 * data in one CompressedStore (compressed_store.hh).
 */

#ifndef ARIADNE_SWAP_SCHEME_HH
#define ARIADNE_SWAP_SCHEME_HH

#include <cstdint>
#include <map>
#include <string>

#include "mem/dram.hh"
#include "mem/flash.hh"
#include "mem/page.hh"
#include "mem/zpool.hh"
#include "sim/clock.hh"
#include "sim/cpu_account.hh"
#include "sim/energy_model.hh"
#include "sim/timing_model.hh"
#include "swap/page_compressor.hh"
#include "workload/trace.hh"

namespace ariadne
{

/**
 * Pages one reclaim pass takes: a direct-reclaim call on the fault
 * path asks for this many, and an LRU scheme takes at most this many
 * victims from one app before it picks the oldest app again.
 */
constexpr std::size_t reclaimBatchPages = 32;

/** Shared services every scheme operates against. */
struct SwapContext
{
    Clock &clock;
    const TimingModel &timing;
    CpuAccount &cpu;
    ActivityTotals &activity;
    Dram &dram;
    PageCompressor &compressor;
};

/** Per-app compression/decompression accounting (Figs. 11-13). */
struct CompStats
{
    Tick compNs = 0;
    Tick decompNs = 0;
    std::uint64_t inBytes = 0;   //!< uncompressed bytes compressed
    std::uint64_t outBytes = 0;  //!< compressed bytes produced
    std::uint64_t decompBytes = 0; //!< uncompressed bytes recovered
    std::uint64_t compOps = 0;
    std::uint64_t decompOps = 0;

    /** Compression ratio original/compressed (0 when empty). */
    double
    ratio() const noexcept
    {
        return outBytes ? static_cast<double>(inBytes) /
                              static_cast<double>(outBytes)
                        : 0.0;
    }

    /** Merge @p o into this. */
    void add(const CompStats &o) noexcept;
};

/** Outcome of a swap-in fault. */
struct SwapInResult
{
    Tick latencyNs = 0;   //!< synchronous latency charged to the fault
    bool fromFlash = false;
    bool stagedHit = false; //!< served from the PreDecomp buffer
};

/** Abstract compressed-swap scheme. */
class SwapScheme
{
  public:
    explicit SwapScheme(SwapContext context) : ctx(context) {}
    virtual ~SwapScheme() = default;

    SwapScheme(const SwapScheme &) = delete;
    SwapScheme &operator=(const SwapScheme &) = delete;

    /** Scheme display name (used in reports). */
    virtual std::string name() const = 0;

    /** A freshly allocated page became resident. */
    virtual void onAdmit(PageMeta &page) = 0;

    /** A resident page was touched. */
    virtual void onAccess(PageMeta &page) = 0;

    /** Bring a non-resident page back; advances the clock. */
    virtual SwapInResult swapIn(PageMeta &page) = 0;

    /**
     * Evict at least @p pages resident pages.
     * @param direct True when called synchronously from a fault path
     * (advances the clock); false for background kswapd work.
     * @return pages actually freed.
     */
    virtual std::size_t reclaim(std::size_t pages, bool direct) = 0;

    /**
     * Take one DRAM page for a page becoming resident. When memory
     * is full, direct-reclaim reclaimBatchPages pages first
     * (on-demand compression on the fault path, §2.3); panics if
     * that frees nothing.
     */
    void allocateResident();

    /** App lifecycle hints. */
    virtual void onRelaunchStart(AppId) {}
    virtual void onRelaunchEnd(AppId) {}
    virtual void onBackground(AppId) {}

    /** Compressed bytes currently stored (zpool + flash). */
    virtual std::size_t compressedStoredBytes() const { return 0; }

    /** Underlying pool, when the scheme has one. */
    virtual const Zpool *zpool() const { return nullptr; }

    /** Underlying flash swap device, when the scheme has one. */
    virtual const FlashDevice *flash() const { return nullptr; }

    /** Resident page counts per hotness level, when the scheme
     * organizes pages that way (gauge sampling only). Returns false
     * — outputs untouched — otherwise. */
    virtual bool
    levelPopulations(std::size_t &, std::size_t &, std::size_t &) const
    {
        return false;
    }

    /**
     * Attach (or with nullptr detach) the observer told of each page
     * this scheme puts into the zpool and each zpool swap-in.
     * MobileSystem::setObserver hands its observer over. Not owned.
     */
    void setObserver(SystemObserver *obs) noexcept { observer = obs; }

    /** Per-app compression statistics. */
    const CompStats &appStats(AppId uid) const;

    /** Aggregate compression statistics. */
    CompStats totalStats() const;

    /** Pages dropped under extreme pressure (potential app kill). */
    std::uint64_t lostPages() const noexcept { return lost; }

    /** Direct-reclaim invocations (on-demand compression events). */
    std::uint64_t directReclaims() const noexcept { return directRuns; }

    /**
     * CPU spent in proactive background reclaim (onBackground work:
     * the vendors' periodic compression for ZRAM, the AL scenario's
     * hot-list compression for Ariadne). Runs on the reclaim daemon,
     * so Fig. 3 counts it alongside kswapd.
     */
    Tick backgroundReclaimCpuNs() const noexcept { return bgReclaimNs; }

  protected:
    /**
     * Account one compression of @p in_bytes -> @p out_bytes at
     * @p chunk_bytes chunks: model CPU time, energy-relevant DRAM
     * traffic, per-app stats; advances the clock when @p synchronous.
     * @return modeled compression time.
     */
    Tick chargeCompression(AppId uid, const CodecCost &cost,
                           std::size_t chunk_bytes, std::size_t in_bytes,
                           std::size_t out_bytes, bool synchronous);

    /** Mirror of chargeCompression for decompression. */
    Tick chargeDecompression(AppId uid, const CodecCost &cost,
                             std::size_t chunk_bytes,
                             std::size_t out_bytes,
                             std::size_t stored_bytes,
                             bool synchronous);

    /** Drop @p page's data under extreme pressure: it becomes Lost
     * and counts in lostPages(). */
    void losePage(PageMeta &page);

    /**
     * Charge accumulated LRU operations since the last call. List
     * surgery is CPU-accounted but never advances the clock: a list
     * op is ~100x cheaper than a swap (§6.4) and its latency is
     * already folded into the fault/touch base costs.
     */
    void chargeLruOps();

    SwapContext ctx;
    SystemObserver *observer = nullptr;
    std::map<AppId, CompStats> perApp;
    std::uint64_t lruOpCount = 0;
    std::uint64_t lost = 0;
    std::uint64_t directRuns = 0;
    Tick bgReclaimNs = 0;

  private:
    std::uint64_t chargedLruOps = 0;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_SCHEME_HH
