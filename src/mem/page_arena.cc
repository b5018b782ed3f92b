#include "mem/page_arena.hh"

namespace ariadne
{

PageMeta *
PageArena::alloc()
{
    if (used == slabs.size() * slabPages)
        slabs.push_back(std::make_unique<PageMeta[]>(slabPages));
    PageMeta *page = &slabs[used / slabPages][used % slabPages];
    ++used;
    // After a reset() the slabs hold the previous session's records.
    *page = PageMeta{};
    return page;
}

std::vector<Pfn>
PfnBitmap::toSortedVector() const
{
    std::vector<Pfn> out;
    for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        while (bits) {
            unsigned bit =
                static_cast<unsigned>(__builtin_ctzll(bits));
            out.push_back(static_cast<Pfn>(w * 64 + bit));
            bits &= bits - 1;
        }
    }
    return out;
}

} // namespace ariadne
