#include "workload/apps.hh"

#include "sim/log.hh"

namespace ariadne
{

namespace
{

/** Build a ContentMix from weights in enum order. */
ContentMix
mix(double zero, double text, double pointer, double counter,
    double flt, double media, double random)
{
    ContentMix m;
    m[RegionType::Zero] = zero;
    m[RegionType::Text] = text;
    m[RegionType::Pointer] = pointer;
    m[RegionType::Counter] = counter;
    m[RegionType::Float] = flt;
    m[RegionType::Media] = media;
    m[RegionType::Random] = random;
    return m;
}

AppProfile
make(AppId uid, const char *name, std::size_t mb10s, std::size_t mb5min,
     double hot_frac, double warm_frac, double similarity, double reuse,
     double seq_prob, ContentMix m)
{
    AppProfile p;
    p.uid = uid;
    p.name = name;
    p.anonBytes10s = mb10s * 1024 * 1024;
    p.anonBytes5min = mb5min * 1024 * 1024;
    p.hotFraction = hot_frac;
    p.warmFraction = warm_frac;
    p.hotSimilarity = similarity;
    p.reuseFraction = reuse;
    p.seqAccessProb = seq_prob;
    p.mix = m;
    return p;
}

} // namespace

std::vector<AppProfile>
standardApps()
{
    std::vector<AppProfile> apps;
    // The five Table-1 apps, volumes (MB) from the paper.
    apps.push_back(make(0, "YouTube", 177, 358, 0.30, 0.35, 0.76, 0.99,
                        0.89, mix(0.15, 0.20, 0.20, 0.10, 0.05, 0.25,
                                  0.05)));
    apps.push_back(make(1, "Twitter", 182, 273, 0.35, 0.35, 0.74, 0.99,
                        0.89, mix(0.15, 0.35, 0.20, 0.10, 0.05, 0.10,
                                  0.05)));
    apps.push_back(make(2, "Firefox", 560, 716, 0.22, 0.35, 0.68, 0.98,
                        0.79, mix(0.15, 0.30, 0.25, 0.10, 0.05, 0.10,
                                  0.05)));
    apps.push_back(make(3, "GoogleEarth", 273, 429, 0.25, 0.35, 0.71,
                        0.98, 0.83,
                        mix(0.15, 0.15, 0.15, 0.10, 0.25, 0.15, 0.05)));
    apps.push_back(make(4, "BangDream", 326, 821, 0.12, 0.30, 0.58, 0.96,
                        0.78, mix(0.10, 0.10, 0.10, 0.05, 0.25, 0.30,
                                  0.10)));
    // The remaining five §5 apps; volumes in the same range.
    apps.push_back(make(5, "TikTok", 300, 520, 0.25, 0.35, 0.70, 0.98,
                        0.78, mix(0.12, 0.18, 0.18, 0.10, 0.07, 0.28,
                                  0.07)));
    apps.push_back(make(6, "Edge", 250, 400, 0.28, 0.35, 0.72, 0.98,
                        0.76, mix(0.15, 0.32, 0.22, 0.10, 0.04, 0.12,
                                  0.05)));
    apps.push_back(make(7, "GoogleMaps", 260, 450, 0.24, 0.35, 0.69,
                        0.98, 0.74,
                        mix(0.14, 0.16, 0.16, 0.10, 0.24, 0.15, 0.05)));
    apps.push_back(make(8, "AngryBirds", 200, 380, 0.18, 0.32, 0.64,
                        0.97, 0.68,
                        mix(0.12, 0.12, 0.12, 0.08, 0.22, 0.26, 0.08)));
    apps.push_back(make(9, "TwitchTV", 230, 410, 0.26, 0.35, 0.73, 0.98,
                        0.77, mix(0.13, 0.22, 0.18, 0.10, 0.05, 0.25,
                                  0.07)));
    return apps;
}

AppProfile
standardApp(const std::string &name)
{
    std::string known;
    for (const auto &app : standardApps()) {
        if (app.name == name)
            return app;
        known += known.empty() ? "" : ", ";
        known += app.name;
    }
    fatal("unknown standard app: " + name + " (valid: " + known + ")");
}

} // namespace ariadne
