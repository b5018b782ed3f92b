#include "report/claims.hh"

#include <algorithm>
#include <cmath>

#include "driver/json_writer.hh"

namespace ariadne::report
{

double
Claim::tolerance() const noexcept
{
    return rule == ClaimRule::Approx ? approxTolerance : 0.0;
}

bool
Claim::reproduced() const noexcept
{
    auto passes = [this](double v) {
        return rule == ClaimRule::Below   ? v < paper
               : rule == ClaimRule::Above ? v > paper
                                          : std::abs(v - paper) <=
                                                tolerance() *
                                                    std::abs(paper);
    };
    return !values.empty() &&
           std::all_of(values.begin(), values.end(), passes);
}

ClaimSpread
Claim::spread() const noexcept
{
    ClaimSpread s;
    if (values.empty())
        return s;
    auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    for (double v : values)
        s.mean += v;
    s.n = values.size();
    s.mean /= static_cast<double>(s.n);
    s.min = *lo;
    s.max = *hi;
    return s;
}

std::string
Claim::paperText() const
{
    const char *op = rule == ClaimRule::Approx  ? "~"
                     : rule == ClaimRule::Below ? "< "
                                                : "> ";
    return op + driver::JsonWriter::formatDouble(paper) + unit;
}

void
writeJson(driver::JsonWriter &w, const Claim &claim)
{
    ClaimSpread s = claim.spread();
    w.beginObject();
    w.field("figure", claim.figure);
    w.field("claim", claim.text);
    w.field("kind", claim.kind == ClaimKind::Input ? "input" : "emergent");
    w.field("scale", claim.scale);
    w.key("reproduced");
    w.beginObject();
    w.field("mean", s.mean);
    w.field("min", s.min);
    w.field("max", s.max);
    w.field("n", static_cast<std::uint64_t>(s.n));
    w.endObject();
    w.field("paper", claim.paperText());
    w.field("tolerance", claim.tolerance());
    w.field("verdict", claim.reproduced() ? "reproduced" : "not reproduced");
    w.endObject();
}

} // namespace ariadne::report
