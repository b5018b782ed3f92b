/** @file Unit tests for the string-keyed swap-scheme registry. */

#include <gtest/gtest.h>

#include "core/ariadne.hh"
#include "scheme_test_util.hh"
#include "swap/scheme_registry.hh"
#include "swap/zram.hh"

using namespace ariadne;
using testutil::SchemeHarness;

TEST(SchemeParams, TypedGettersParseAndDefault)
{
    SchemeParams p;
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.getString("config", "fallback"), "fallback");
    EXPECT_TRUE(p.getBool("predecomp", true));
    EXPECT_EQ(p.getU64("batch", 32u), 32u);
    EXPECT_EQ(p.getMiB("zpool_mb", 77u), 77u);

    p.set("predecomp", "off");
    p.set("batch", "64");
    p.set("zpool_mb", "192");
    p.set("config", "EHL-1K-2K-16K");
    EXPECT_FALSE(p.empty());
    EXPECT_FALSE(p.getBool("predecomp", true));
    EXPECT_EQ(p.getU64("batch", 0), 64u);
    EXPECT_EQ(p.getMiB("zpool_mb", 0), std::size_t{192} << 20);
    EXPECT_EQ(p.getString("config", ""), "EHL-1K-2K-16K");

    // Entries iterate in key order: canonical serialization.
    std::vector<std::string> keys;
    for (const auto &[key, value] : p.entries())
        keys.push_back(key);
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(SchemeParams, MalformedValuesThrowSchemeError)
{
    SchemeParams p;
    p.set("b", "maybe");
    p.set("n", "-1");
    p.set("huge", "99999999999999999999");
    EXPECT_THROW(p.getBool("b", true), SchemeError);
    EXPECT_THROW(p.getU64("n", 0), SchemeError);
    EXPECT_THROW(p.getU64("huge", 0), SchemeError);
    EXPECT_THROW(p.getMiB("huge", 0), SchemeError);
}

TEST(SchemeRegistry, RegistersTheFiveBuiltinSchemes)
{
    const SchemeRegistry &reg = SchemeRegistry::instance();
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"ariadne", "dram", "swap",
                                        "zram", "zswap"}));
    EXPECT_EQ(reg.at("zram").displayName, "ZRAM");
    EXPECT_EQ(reg.at("ariadne").displayName, "Ariadne");
    EXPECT_TRUE(reg.at("dram").unboundedDram);
    EXPECT_FALSE(reg.at("zswap").unboundedDram);
    EXPECT_EQ(reg.find("nonsense"), nullptr);
    // Every scheme self-describes.
    for (const SchemeInfo *info : reg.infos()) {
        EXPECT_FALSE(info->description.empty()) << info->key;
        EXPECT_TRUE(info->build) << info->key;
    }
}

TEST(SchemeRegistry, UnknownSchemeErrorListsValidNames)
{
    try {
        SchemeRegistry::instance().at("windows");
        FAIL() << "expected SchemeError";
    } catch (const SchemeError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unknown scheme 'windows'"),
                  std::string::npos);
        EXPECT_NE(msg.find("ariadne, dram, swap, zram, zswap"),
                  std::string::npos);
    }
}

TEST(SchemeRegistry, ValidateChecksKnobNamesAndValues)
{
    const SchemeRegistry &reg = SchemeRegistry::instance();
    SchemeParams ok;
    ok.set("zpool_mb", "64");
    reg.validate("zram", ok); // no throw

    // Unknown knob: the error names the scheme's valid knobs.
    SchemeParams unknown;
    unknown.set("config", "EHL-1K-2K-16K");
    try {
        reg.validate("zram", unknown);
        FAIL() << "expected SchemeError";
    } catch (const SchemeError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("no knob 'config'"), std::string::npos);
        EXPECT_NE(msg.find("zpool_mb"), std::string::npos);
    }
    // dram takes no knobs at all, and says so.
    try {
        reg.validate("dram", ok);
        FAIL() << "expected SchemeError";
    } catch (const SchemeError &e) {
        EXPECT_NE(std::string(e.what()).find("takes no knobs"),
                  std::string::npos);
    }
    // Typed value checks, one per knob type.
    SchemeParams bad_bool;
    bad_bool.set("predecomp", "maybe");
    EXPECT_THROW(reg.validate("ariadne", bad_bool), SchemeError);
    SchemeParams bad_u64;
    bad_u64.set("hot_init_pages", "-1");
    EXPECT_THROW(reg.validate("ariadne", bad_u64), SchemeError);
    SchemeParams bad_mb;
    bad_mb.set("zpool_mb", "64M");
    EXPECT_THROW(reg.validate("zram", bad_mb), SchemeError);
    // Per-knob grammar checks run at validation time too.
    SchemeParams bad_config;
    bad_config.set("config", "EHL-1K");
    EXPECT_THROW(reg.validate("ariadne", bad_config), SchemeError);
}

TEST(SchemeRegistry, KnobsOutsideTheSchemaAreUnknown)
{
    // The codec, capacities other than the zpool, reclaim batches,
    // the proactive fraction and the staging-buffer size are fixed:
    // naming one is an unknown-knob error.
    const std::pair<const char *, const char *> fixed[] = {
        {"ariadne", "codec"},
        {"zram", "codec"},
        {"zswap", "codec"},
        {"ariadne", "flash_mb"},
        {"swap", "flash_mb"},
        {"zswap", "flash_mb"},
        {"ariadne", "reclaim_batch"},
        {"swap", "reclaim_batch"},
        {"zram", "reclaim_batch"},
        {"zswap", "reclaim_batch"},
        {"zram", "proactive_fraction"},
        {"zswap", "proactive_fraction"},
        {"ariadne", "predecomp_buffer_pages"},
    };
    for (const auto &[scheme, knob] : fixed) {
        SchemeParams p;
        p.set(knob, "1");
        try {
            SchemeRegistry::instance().validate(scheme, p);
            ADD_FAILURE() << scheme << " accepts knob '" << knob << "'";
        } catch (const SchemeError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string("no knob '") + knob + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(SchemeRegistry, BuildsEachSchemeWithItsKnobs)
{
    SchemeHarness h;

    auto zram = SchemeRegistry::instance().build(
        "zram", h.context(), SchemeParams{}, 1.0, {});
    EXPECT_EQ(zram->name(), "zram");
    EXPECT_EQ(zram->flash(), nullptr);

    auto zswap = SchemeRegistry::instance().build(
        "zswap", h.context(), SchemeParams{}, 1.0, {});
    EXPECT_EQ(zswap->name(), "zswap");
    EXPECT_NE(zswap->flash(), nullptr);

    SchemeParams ap;
    ap.set("config", "AL-512-2K-16K");
    ap.set("zpool_mb", "64");
    auto ariadne_scheme = SchemeRegistry::instance().build(
        "ariadne", h.context(), ap, 1.0, {});
    EXPECT_EQ(ariadne_scheme->name(), "Ariadne-AL-512-2K-16K");
    EXPECT_EQ(ariadne_scheme->zpool()->capacityBytes(),
              std::size_t{64} << 20);

    auto dram = SchemeRegistry::instance().build(
        "dram", h.context(), SchemeParams{}, 1.0, {});
    EXPECT_EQ(dram->name(), "dram");
    auto swap = SchemeRegistry::instance().build(
        "swap", h.context(), SchemeParams{}, 1.0, {});
    EXPECT_EQ(swap->name(), "swap");
    EXPECT_NE(swap->flash(), nullptr);

    // Capacity knobs are paper-scale and multiplied by the run scale.
    SchemeParams zp;
    zp.set("zpool_mb", "128");
    auto scaled = SchemeRegistry::instance().build(
        "zram", h.context(), zp, 0.5, {});
    EXPECT_EQ(scaled->zpool()->capacityBytes(),
              (std::size_t{128} << 20) / 2);

    // build() validates: unknown scheme and unknown knob both throw.
    EXPECT_THROW(SchemeRegistry::instance().build(
                     "nonsense", h.context(), SchemeParams{}, 1.0, {}),
                 SchemeError);
    SchemeParams bad;
    bad.set("bogus", "1");
    EXPECT_THROW(SchemeRegistry::instance().build(
                     "zram", h.context(), bad, 1.0, {}),
                 SchemeError);
}
