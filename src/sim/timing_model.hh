/**
 * @file
 * Calibrated device timing model.
 *
 * The paper evaluates on a Google Pixel 7 (Table 4). This simulator
 * replaces the physical device with an analytic timing model: every
 * data-movement or compute event maps to nanoseconds of simulated time
 * through the constants below. Functional results (what is compressed,
 * to what ratio, what faults) come from real execution of the from-
 * scratch codecs; only *durations* come from this model.
 *
 * Calibration anchors, all taken from the paper:
 *  - Fig. 6: compressing 576 MB with 128 B chunks is 59.2x (LZ4) and
 *    41.8x (LZO) faster than with 128 KB chunks. The model realizes
 *    this with a per-byte cost that grows by `compGrowth` per chunk-
 *    size doubling relative to the 4 KB reference point.
 *  - Fig. 2: ZRAM relaunch is ~2.1x slower than pure DRAM; SWAP is
 *    slower still. Fault, decompression, and flash costs are sized to
 *    land in that regime.
 *  - Prior work cited in the paper: process creation dominates cold
 *    launch (94%); LRU list operations are ~100x cheaper than swaps.
 */

#ifndef ARIADNE_SIM_TIMING_MODEL_HH
#define ARIADNE_SIM_TIMING_MODEL_HH

#include <cstddef>

#include "sim/types.hh"

namespace ariadne
{

/**
 * Per-algorithm timing coefficients. The reference point is a 4 KB
 * chunk; the per-byte cost multiplier is piecewise-exponential in the
 * chunk size with three regimes:
 *
 *  - below 1 KB, cost falls steeply as chunks shrink (tiny match
 *    windows, trivial search state) — `growthSmall` per doubling;
 *  - between 1 KB and 32 KB, chunks live in L1/L2 and the growth per
 *    doubling is mild — `growthMid`;
 *  - above 32 KB, the working set spills the caches and cost per
 *    byte explodes — `growthLarge`.
 *
 * The regime boundaries reconcile the paper's two observations: the
 * 59.2x/41.8x total-time span of Fig. 6 (driven by the extremes) and
 * Fig. 11's CPU *reduction* with 16-32 KB cold chunks (which requires
 * mid-range chunks to be only mildly more expensive than 4 KB).
 */
struct CodecCost
{
    double compNsPerByte4k;   //!< compression ns/byte at 4 KB chunks
    double decompNsPerByte4k; //!< decompression ns/byte at 4 KB chunks
    double compGrowthSmall;   //!< comp growth per doubling below 1 KB
    double compGrowthMid;     //!< comp growth per doubling 1..32 KB
    double compGrowthLarge;   //!< comp growth per doubling above 32 KB
    double decompGrowthSmall; //!< decomp growth below 1 KB
    double decompGrowthMid;   //!< decomp growth 1..32 KB
    double decompGrowthLarge; //!< decomp growth above 32 KB
};

/** LZ4 coefficients (Fig. 6 span 59.2x over 128 B..128 KB). */
constexpr CodecCost lz4Cost{0.80, 0.25, 1.63, 1.15, 2.75,
                            1.45, 1.25, 1.80};

/** LZO coefficients (Fig. 6 span 41.8x over 128 B..128 KB). */
constexpr CodecCost lzoCost{1.00, 0.35, 1.55, 1.12, 2.60,
                            1.45, 1.25, 1.80};

/** Base-delta-immediate: near-constant cost per byte. */
constexpr CodecCost bdiCost{0.08, 0.05, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};

/** Null codec (memcpy). */
constexpr CodecCost nullCost{0.02, 0.02, 1.0, 1.0, 1.0,
                             1.0, 1.0, 1.0};

/** Tunable device constants; defaults approximate a Pixel 7. */
struct TimingParams
{
    /** Copy one 4 KB page within DRAM. */
    Tick dramPageCopyNs = 250;
    /** Service a minor fault (page resident). */
    Tick minorFaultNs = 1500;
    /** Major-fault bookkeeping, excluding I/O and decompression. */
    Tick majorFaultBaseNs = 2500;
    /** Random 4 KB read latency from UFS 3.1 flash. */
    Tick flashReadPageNs = 80000;
    /** 4 KB program latency to UFS 3.1 flash. */
    Tick flashWritePageNs = 200000;
    /** Pages fetched per flash read thanks to swap readahead. */
    unsigned flashReadaheadPages = 4;
    /** CPU cost to build and submit one swap I/O request. */
    Tick flashSubmitCpuNs = 300;
    /** CPU cost to write back one file-backed page (reclaim path). */
    Tick fileWritebackCpuNs = 3000;
    /** One LRU list operation (unlink/insert). */
    Tick lruOpNs = 150;
    /** Process creation (dominates cold launch per prior work). */
    Tick processCreateNs = 180000000;
    /** Base UI/runtime work of a hot relaunch, excluding paging. */
    Tick relaunchBaseNs = 30000000;
    /** Fixed CPU overhead per compression chunk invocation. */
    Tick compChunkOverheadNs = 2;
    /** Fixed CPU overhead per decompression chunk invocation. */
    Tick decompChunkOverheadNs = 2;
};

/** Maps simulator events to simulated nanoseconds. */
class TimingModel
{
  public:
    explicit TimingModel(const TimingParams &p = TimingParams{})
        : prm(p)
    {}

    /** Access to the raw constants. */
    const TimingParams &params() const noexcept { return prm; }

    /**
     * Modeled time to compress @p total_bytes using @p chunk_bytes
     * chunks with algorithm @p cost.
     */
    Tick compressNs(const CodecCost &cost, std::size_t chunk_bytes,
                    std::size_t total_bytes) const noexcept;

    /** Modeled time to decompress, mirror of compressNs. */
    Tick decompressNs(const CodecCost &cost, std::size_t chunk_bytes,
                      std::size_t total_bytes) const noexcept;

    /** Per-byte compression cost at @p chunk_bytes (exposed for tests). */
    double compNsPerByte(const CodecCost &cost,
                         std::size_t chunk_bytes) const noexcept;

    /** Per-byte decompression cost at @p chunk_bytes. */
    double decompNsPerByte(const CodecCost &cost,
                           std::size_t chunk_bytes) const noexcept;

    /**
     * Wall time to read @p pages 4 KB pages from flash, accounting for
     * readahead clustering (pages fetched together share one access).
     */
    Tick flashReadNs(std::size_t pages) const noexcept;

    /** Wall time to write @p pages 4 KB pages to flash. */
    Tick flashWriteNs(std::size_t pages) const noexcept;

    /** Wall time to write @p bytes to flash (sub-page granularity). */
    Tick flashWriteBytesNs(std::size_t bytes) const noexcept;

  private:
    TimingParams prm;
};

} // namespace ariadne

#endif // ARIADNE_SIM_TIMING_MODEL_HH
