/**
 * @file
 * Flash swap device model.
 *
 * Models the UFS 3.1 swap partition: slot-granular object storage with
 * byte counters for host writes, device writes (after write
 * amplification) and reads. Latency is charged by callers through the
 * TimingModel; this class owns capacity and endurance accounting. The
 * wear counters back the paper's flash-lifetime discussion (§2.2):
 * compressed swap-out writes fewer bytes than raw swap-out.
 */

#ifndef ARIADNE_MEM_FLASH_HH
#define ARIADNE_MEM_FLASH_HH

#include <cstdint>
#include <unordered_map>

#include "sim/types.hh"

namespace ariadne
{

/** Handle to an object stored in the flash swap space. */
using FlashSlot = std::uint64_t;

/** Sentinel for "no slot". */
constexpr FlashSlot invalidFlashSlot = UINT64_MAX;

/** Swap-partition model with endurance accounting. */
class FlashDevice
{
  public:
    /**
     * @param capacity_bytes Size of the swap partition.
     * @param write_amplification Device writes per host write byte.
     */
    explicit FlashDevice(std::size_t capacity_bytes,
                         double write_amplification = 1.3);

    /**
     * Store an object of @p bytes.
     * @return slot handle, or invalidFlashSlot when full.
     */
    FlashSlot write(std::size_t bytes);

    /** Read an object (counts read bytes). @return its size. */
    std::size_t read(FlashSlot slot);

    /** Size of a stored object without counting a read. */
    std::size_t slotSize(FlashSlot slot) const;

    /** Discard an object. */
    void free(FlashSlot slot);

    /** True when @p slot holds a live object. */
    bool live(FlashSlot slot) const noexcept;

    std::size_t capacityBytes() const noexcept { return capacity; }
    std::size_t liveBytes() const noexcept { return used; }

    /** Bytes the host asked to write. */
    std::uint64_t
    hostWriteBytes() const noexcept
    {
        return hostWrites;
    }

    /** Bytes physically programmed (host writes x amplification). */
    std::uint64_t
    deviceWriteBytes() const noexcept
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(hostWrites) * writeAmp);
    }

    /** Bytes read back by the host. */
    std::uint64_t readBytes() const noexcept { return reads; }

    /** Number of write operations issued. */
    std::uint64_t writeOps() const noexcept { return writeOpCount; }

    /** Number of read operations issued. */
    std::uint64_t readOps() const noexcept { return readOpCount; }

  private:
    std::size_t capacity;
    double writeAmp;
    std::size_t used = 0;
    std::uint64_t nextSlot = 0;
    std::unordered_map<FlashSlot, std::size_t> slots;
    std::uint64_t hostWrites = 0;
    std::uint64_t reads = 0;
    std::uint64_t writeOpCount = 0;
    std::uint64_t readOpCount = 0;
};

} // namespace ariadne

#endif // ARIADNE_MEM_FLASH_HH
