/** @file Unit tests for AriadneConfig parsing and formatting. */

#include <gtest/gtest.h>

#include "core/config.hh"

using namespace ariadne;

TEST(Config, ParseBasic)
{
    auto cfg = AriadneConfig::parse("EHL-1K-2K-16K");
    EXPECT_TRUE(cfg.excludeHotList);
    EXPECT_EQ(cfg.smallSize, 1024u);
    EXPECT_EQ(cfg.mediumSize, 2048u);
    EXPECT_EQ(cfg.largeSize, 16384u);
}

TEST(Config, ParseByteSizes)
{
    auto cfg = AriadneConfig::parse("AL-256-2K-32K");
    EXPECT_FALSE(cfg.excludeHotList);
    EXPECT_EQ(cfg.smallSize, 256u);
    EXPECT_EQ(cfg.mediumSize, 2048u);
    EXPECT_EQ(cfg.largeSize, 32768u);
}

TEST(Config, ParseWithAriadnePrefix)
{
    auto cfg = AriadneConfig::parse("Ariadne-EHL-512-2K-16K");
    EXPECT_TRUE(cfg.excludeHotList);
    EXPECT_EQ(cfg.smallSize, 512u);
}

TEST(Config, ToStringRoundtrips)
{
    for (const char *text :
         {"EHL-1K-2K-16K", "AL-256-2K-32K", "EHL-512-4K-16K",
          "AL-1K-4K-64K"}) {
        auto cfg = AriadneConfig::parse(text);
        EXPECT_EQ(cfg.toString(), std::string("Ariadne-") + text);
        auto again = AriadneConfig::parse(cfg.toString());
        EXPECT_EQ(again.smallSize, cfg.smallSize);
        EXPECT_EQ(again.mediumSize, cfg.mediumSize);
        EXPECT_EQ(again.largeSize, cfg.largeSize);
        EXPECT_EQ(again.excludeHotList, cfg.excludeHotList);
    }
}

TEST(Config, ColdUnitPages)
{
    auto cfg = AriadneConfig::parse("EHL-1K-2K-16K");
    EXPECT_EQ(cfg.coldUnitPages(), 4u);
    cfg = AriadneConfig::parse("EHL-1K-2K-32K");
    EXPECT_EQ(cfg.coldUnitPages(), 8u);
    // The largest LargeSize whose cold unit fits one zpool object
    // (ScenarioSpec.RejectsBadValues rejects 1020K).
    cfg = AriadneConfig::parse("EHL-1K-2K-1019K");
    EXPECT_EQ(cfg.largeSize, std::size_t{1019} * 1024);
    EXPECT_EQ(cfg.coldUnitPages(), 254u);
}

TEST(Config, TableFiveDefaults)
{
    AriadneConfig cfg;
    // Table 5: S = 3 GB zpool.
    EXPECT_EQ(cfg.zpoolBytes, std::size_t{3} * 1024 * 1024 * 1024);
    EXPECT_TRUE(cfg.preDecompEnabled);
}

TEST(ConfigDeath, RejectsBadMode)
{
    EXPECT_DEATH(AriadneConfig::parse("XXX-1K-2K-16K"),
                 "EHL or AL");
}

TEST(ConfigDeath, RejectsWrongArity)
{
    EXPECT_DEATH(AriadneConfig::parse("EHL-1K-2K"), "MODE-SMALL");
}

TEST(ConfigDeath, RejectsUnorderedSizes)
{
    EXPECT_DEATH(AriadneConfig::parse("EHL-4K-2K-16K"), "ordered");
}

TEST(ConfigDeath, RejectsGarbageSize)
{
    EXPECT_DEATH(AriadneConfig::parse("EHL-abc-2K-16K"),
                 "bad size token");
}
