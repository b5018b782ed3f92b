/** @file Unit tests for claim rows and their verdict rule. */

#include <gtest/gtest.h>

#include <sstream>

#include "driver/json_writer.hh"
#include "report/claims.hh"

using namespace ariadne;
using report::Claim;
using report::ClaimKind;
using report::ClaimRule;

namespace
{

Claim
approx(double paper, std::vector<double> values, std::string unit = "x")
{
    return Claim{.text = "claim",
                 .rule = ClaimRule::Approx,
                 .paper = paper,
                 .unit = std::move(unit),
                 .values = std::move(values)};
}

Claim
bound(ClaimRule rule, double paper, std::vector<double> values)
{
    return Claim{.text = "claim",
                 .rule = rule,
                 .paper = paper,
                 .unit = "%",
                 .values = std::move(values)};
}

} // namespace

TEST(ClaimVerdict, ApproximateClaimAllowsTenPercentEitherSide)
{
    // ~2.1x: the band is 1.89..2.31.
    EXPECT_TRUE(approx(2.1, {1.9}).reproduced());
    EXPECT_TRUE(approx(2.1, {2.3}).reproduced());
    EXPECT_FALSE(approx(2.1, {1.88}).reproduced());
    EXPECT_FALSE(approx(2.1, {2.32}).reproduced());
    // A negative percentage change gets the same relative band:
    // ~-50 % passes from -55 % to -45 %.
    EXPECT_TRUE(approx(-50, {-46}, "%").reproduced());
    EXPECT_TRUE(approx(-50, {-54}, "%").reproduced());
    EXPECT_FALSE(approx(-50, {-41.3}, "%").reproduced());
    EXPECT_FALSE(approx(-50, {-56}, "%").reproduced());
}

TEST(ClaimVerdict, ToleranceIsOneConstantForApproximateClaims)
{
    EXPECT_DOUBLE_EQ(report::approxTolerance, 0.10);
    EXPECT_DOUBLE_EQ(approx(2.1, {}).tolerance(), report::approxTolerance);
    EXPECT_DOUBLE_EQ(approx(-15, {}, "%").tolerance(),
                     report::approxTolerance);
    EXPECT_DOUBLE_EQ(bound(ClaimRule::Below, 10, {}).tolerance(), 0.0);
    EXPECT_DOUBLE_EQ(bound(ClaimRule::Above, 1, {}).tolerance(), 0.0);
}

TEST(ClaimVerdict, ClaimIsJudgedInThePapersOwnTerms)
{
    // Table 2: ZRAM's energy is +12.2 % over DRAM's. As a normalized
    // ratio a reproduced 1.019 would sit within 10 % of 1.122; as the
    // percentage change the paper gives, +1.9 % is far from +12.2 %.
    EXPECT_TRUE(approx(1.122, {1.019}).reproduced());
    EXPECT_FALSE(approx(12.2, {1.9}, "%").reproduced());
    EXPECT_EQ(approx(12.2, {1.9}, "%").paperText(), "~12.2%");
    EXPECT_EQ(approx(2.1, {}).paperText(), "~2.1x");
}

TEST(ClaimVerdict, BoundClaimMustHoldForEveryValue)
{
    // < 10 %: strict, so a value on the bound fails.
    EXPECT_TRUE(bound(ClaimRule::Below, 10, {9.9, 2.0}).reproduced());
    EXPECT_FALSE(bound(ClaimRule::Below, 10, {9.9, 10.0}).reproduced());
    EXPECT_FALSE(bound(ClaimRule::Below, 10, {22.1}).reproduced());
    EXPECT_TRUE(bound(ClaimRule::Above, 0, {0.1, 3}).reproduced());
    EXPECT_FALSE(bound(ClaimRule::Above, 0, {0.1, -0.1}).reproduced());
    EXPECT_EQ(bound(ClaimRule::Below, 10, {}).paperText(), "< 10%");
    EXPECT_EQ(bound(ClaimRule::Above, 0, {}).paperText(), "> 0%");
}

TEST(ClaimVerdict, RelationMustHoldOnEveryAppAtEverySeed)
{
    // "EHL's ratio above ZRAM's on every app": one ratio per app and
    // seed, three apps at two seeds. One app at one seed breaks it.
    Claim above{.text = "EHL over ZRAM, every app",
                .rule = ClaimRule::Above,
                .paper = 1,
                .unit = "x",
                .values = {1.06, 1.08, 1.07, 1.05, 1.09, 1.04}};
    EXPECT_TRUE(above.reproduced());
    above.values[4] = 0.99;
    EXPECT_FALSE(above.reproduced());
    above.values[4] = 1.0;
    EXPECT_FALSE(above.reproduced());
}

TEST(ClaimVerdict, EverySeedMustPassNotJustTheMean)
{
    // Four seeds averaging 2.1 exactly, one of them outside the band:
    // the fleet's min..max leaves the band, so not reproduced.
    Claim fleet = approx(2.1, {2.0, 2.2, 1.8, 2.4});
    report::ClaimSpread s = fleet.spread();
    EXPECT_DOUBLE_EQ(s.mean, 2.1);
    EXPECT_DOUBLE_EQ(s.min, 1.8);
    EXPECT_DOUBLE_EQ(s.max, 2.4);
    EXPECT_EQ(s.n, 4u);
    EXPECT_FALSE(fleet.reproduced());
    EXPECT_TRUE(approx(2.1, {2.0, 2.2, 1.95, 2.25}).reproduced());
}

TEST(ClaimVerdict, ClaimWithoutValuesIsNotReproduced)
{
    Claim empty = approx(2.1, {});
    EXPECT_FALSE(empty.reproduced());
    EXPECT_EQ(empty.spread().n, 0u);
    EXPECT_FALSE(bound(ClaimRule::Below, 10, {}).reproduced());
}

TEST(ClaimJson, RowCarriesEveryField)
{
    Claim c{.figure = "fig10",
            .text = "All six configs' mean relaunch vs DRAM's",
            .rule = ClaimRule::Below,
            .paper = 10,
            .unit = "%",
            .scale = 0.0625,
            .values = {22.5, 21.5}};
    std::ostringstream os;
    driver::JsonWriter w(os, 0);
    report::writeJson(w, c);
    EXPECT_EQ(os.str(),
              R"({"figure": "fig10",)"
              R"("claim": "All six configs' mean relaunch vs DRAM's",)"
              R"("kind": "emergent","scale": 0.0625,)"
              R"("reproduced": {"mean": 22,"min": 21.5,"max": 22.5,)"
              R"("n": 2},"paper": "< 10%","tolerance": 0,)"
              R"("verdict": "not reproduced"})");

    Claim input = approx(0.7, {0.697}, "");
    input.kind = ClaimKind::Input;
    std::ostringstream os2;
    driver::JsonWriter w2(os2, 0);
    report::writeJson(w2, input);
    EXPECT_NE(os2.str().find(R"("kind": "input")"), std::string::npos);
    EXPECT_NE(os2.str().find(R"("tolerance": 0.1,)"), std::string::npos);
    EXPECT_NE(os2.str().find(R"("verdict": "reproduced")"),
              std::string::npos);
}
