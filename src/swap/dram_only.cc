#include "swap/dram_only.hh"

namespace ariadne
{

SchemeInfo
dramOnlySchemeInfo()
{
    SchemeInfo info;
    info.key = "dram";
    info.displayName = "DRAM";
    info.description = "ideal all-in-DRAM baseline: no compression, "
                       "no swapping, no reclaim";
    info.unboundedDram = true;
    info.build = [](SwapContext ctx, const SchemeParams &, double,
                    const std::vector<AppProfile> &) {
        return std::make_unique<DramOnlyScheme>(ctx);
    };
    return info;
}

} // namespace ariadne
