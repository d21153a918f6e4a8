// Production traffic-shape generators for the scenario system.
//
// Each generator produces plain client parameters — a piecewise-constant
// rate profile (host::RateSegment) or a group-weight vector — so shapes
// compose with every scheme, harness, and fault plan without touching the
// data path: a flash crowd is just a rate profile, a Zipf sweep just a
// weight vector over the candidate groups.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/groups.hpp"
#include "host/client.hpp"

namespace netclone::harness {

/// Flash crowd: baseline rate until `at`, `factor`x for `duration`, then
/// baseline again.
[[nodiscard]] std::vector<host::RateSegment> flash_crowd_profile(
    SimTime at, SimTime duration, double factor);

/// Diurnal curve compressed to simulation scale: `steps` plateaus per
/// `period` sampling min + (1-min)/2 * (1+sin(2*pi*t/period)), repeated
/// until `total`. The multiplier swings between `min_multiplier` and 1.
[[nodiscard]] std::vector<host::RateSegment> diurnal_profile(
    SimTime period, double min_multiplier, SimTime total,
    std::size_t steps = 12);

/// Zipf(s) popularity over `count` items: weight of item i is
/// 1/(i+1)^s, normalized. s == 0 degenerates to uniform.
[[nodiscard]] std::vector<double> zipf_weights(std::size_t count, double s);

/// Rack-localized hotspot over the candidate groups: groups whose FIRST
/// candidate lives in `hot_rack` (global sid / servers_per_rack) share
/// `share` of the draw mass; the rest split the remainder uniformly.
[[nodiscard]] std::vector<double> hotspot_group_weights(
    const std::vector<core::GroupPair>& groups, std::size_t servers_per_rack,
    std::size_t hot_rack, double share);

}  // namespace netclone::harness
