/**
 * @file
 * Exact compressed-size memo shared by the sessions of one fleet
 * worker.
 *
 * Page bytes are a pure function of (uid, pfn, version) once the
 * apps' content mixes are fixed (mem/page.hh, workload/page_synth.hh),
 * so a unit's frame size is a pure function of the codec, the chunk
 * size and the ordered (uid, pfn, version) of its pages. The memo maps
 * that identity to the frame size. A lookup compares the whole
 * identity, never a hash alone, and no page bytes are stored: each
 * page reference packs into one 64-bit word, and a unit with a field
 * too wide to pack is sized without the memo.
 *
 * Sessions of one fleet repeat most of each other's units: each
 * numbers its apps' pages from pfn 0 and starts them at the same
 * versions, and ZRAM and Ariadne's AL also re-size unchanged pages
 * within a session. A fleet worker
 * therefore keeps one memo for one FleetRunner::run() call, or for
 * one variant's slice of a runShard() call, and lends it to each
 * session it builds (WorkerState). bind()
 * drops every entry when a session synthesizes its pages from another
 * (uid, ContentMix) list than the entries were filled under. A full
 * memo keeps its entries and sizes later units without storing them.
 * Nothing about it is configurable.
 */

#ifndef ARIADNE_SWAP_UNIT_SIZE_MEMO_HH
#define ARIADNE_SWAP_UNIT_SIZE_MEMO_HH

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "compress/codec.hh"
#include "mem/page.hh"
#include "workload/app_model.hh"

namespace ariadne
{

/** Frame sizes of compressed units, keyed by their exact identity. */
class UnitSizeMemo
{
  public:
    /** Units held at most; a unit past the cap is not stored. */
    static constexpr std::size_t maxUnits = 0xffff;
    /** Page references held at most, over all units; ditto. */
    static constexpr std::size_t maxPageRefs = std::size_t{1} << 18;

    /**
     * Serve a session whose pages are synthesized from @p apps. Drops
     * every entry unless the entries were filled under the same
     * (uid, ContentMix) list, in the same order. The memo keeps a
     * pointer to @p apps until the next bind(), so they must outlive
     * the session's lookups.
     */
    void bind(const std::vector<AppProfile> &apps);

    /**
     * Frame size of @p unit compressed with @p codec in @p chunk_bytes
     * chunks: the stored size, or on a miss the result of
     * @p size_unit(), which is then stored unless the memo is full.
     * bind() must have been called first.
     */
    template <typename SizeUnit>
    std::size_t
    frameSize(std::span<const PageRef> unit, CodecKind codec,
              std::size_t chunk_bytes, SizeUnit &&size_unit)
    {
        if (std::optional<std::size_t> hit = find(unit, codec, chunk_bytes))
            return *hit;
        std::size_t frame_bytes = size_unit();
        store(frame_bytes);
        return frame_bytes;
    }

    /** Units currently held. */
    std::size_t size() const noexcept { return entries.size(); }

  private:
    /** One stored unit: its key is refs[refsBegin, next refsBegin). */
    struct Entry
    {
        std::uint32_t refsBegin = 0;
        std::uint32_t frameBytes = 0;
    };

    /** A (codec, chunk size) pair, numbered by first use. */
    struct Shape
    {
        CodecKind codec;
        std::size_t chunkBytes;

        bool operator==(const Shape &) const = default;
    };

    /** Look @p unit up; a miss leaves its key for store(). Interns
     * the unit's shape. */
    std::optional<std::size_t> find(std::span<const PageRef> unit,
                                    CodecKind codec,
                                    std::size_t chunk_bytes);
    /** Store the key the last find() missed; no-op if it had none
     * or the memo is full. */
    void store(std::size_t frame_bytes);
    void clear();
    bool filledUnder(const std::vector<AppProfile> &apps) const;
    std::span<const std::uint64_t> keyOf(std::size_t entry) const;
    /** Index slot of @p key, or of the empty slot it would take. */
    std::size_t slotFor(std::span<const std::uint64_t> key,
                        std::uint64_t hash) const;
    void growIndex();

    std::vector<Entry> entries;
    /** Every stored unit's key, back to back in entry order. */
    std::vector<std::uint64_t> refs;
    /** Open-addressed hash index: entry number + 1, or 0 when empty.
     * Its size is a power of two, at most 3/4 full. */
    std::vector<std::uint16_t> index;
    std::vector<Shape> shapes;

    /** (uid, mix) of the apps the entries were filled under. */
    std::vector<std::pair<AppId, ContentMix>> content;
    const std::vector<AppProfile> *boundApps = nullptr;

    /** The last find()'s key when it missed and the unit packs;
     * empty otherwise. */
    std::vector<std::uint64_t> pendingKey;
    std::uint64_t pendingHash = 0;
};

} // namespace ariadne

#endif // ARIADNE_SWAP_UNIT_SIZE_MEMO_HH
