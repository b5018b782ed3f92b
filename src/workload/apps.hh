/**
 * @file
 * The ten standard application profiles.
 *
 * The paper evaluates Twitter, YouTube, TikTok, Edge, Firefox, Google
 * Earth, Google Maps, BangDream, Angry Birds and TwitchTV (§5).
 * Volumes for the five apps of Table 1 use the paper's numbers; the
 * other five use plausible values in the same range. Content mixes
 * follow each app's nature (browsers are text/pointer heavy; games
 * carry more float/media data, which also gives BangDream the "less
 * hot data" behaviour called out in §6.1).
 */

#ifndef ARIADNE_WORKLOAD_APPS_HH
#define ARIADNE_WORKLOAD_APPS_HH

#include <vector>

#include "workload/app_model.hh"

namespace ariadne
{

/** All ten standard profiles, uid 0..9, in the paper's order. */
std::vector<AppProfile> standardApps();

/** Look up a standard profile by name; fatal() when unknown. */
AppProfile standardApp(const std::string &name);

} // namespace ariadne

#endif // ARIADNE_WORKLOAD_APPS_HH
