#include "src/core/selectors.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/util/require.h"

namespace anyqos::core {

namespace {

/// Samples a member index from `weights` restricted to untried members,
/// masking into the caller's `masked` buffer. Returns nullopt when all
/// members are tried.
std::optional<std::size_t> sample_masked(std::span<const double> weights,
                                         std::span<const bool> tried, std::span<double> masked,
                                         des::RandomStream& rng) {
  util::require(tried.size() == weights.size(), "tried mask must match group size");
  if (std::all_of(tried.begin(), tried.end(), [](bool t) { return t; })) {
    return std::nullopt;
  }
  if (!mask_weights(weights, tried, masked)) {
    // Every untried member has zero weight (e.g. WD/D+B with all-zero probed
    // bandwidth after masking). Fall back to uniform over untried members so
    // the retrial budget can still be spent.
    for (std::size_t i = 0; i < tried.size(); ++i) {
      masked[i] = tried[i] ? 0.0 : 1.0;
    }
    normalize_weights(masked);
  }
  return rng.weighted_index(masked);
}

std::vector<std::size_t> route_distances(net::NodeId source, const net::RouteTable& routes) {
  std::vector<std::size_t> distances;
  distances.reserve(routes.destination_count());
  for (std::size_t i = 0; i < routes.destination_count(); ++i) {
    distances.push_back(routes.distance(source, i));
  }
  return distances;
}

}  // namespace

// ---------------------------------------------------------------- ED

EvenDistributionSelector::EvenDistributionSelector(std::size_t group_size)
    : weights_(WeightVector::uniform(group_size)), masked_(group_size) {}

std::optional<std::size_t> EvenDistributionSelector::select(std::span<const bool> tried,
                                                            des::RandomStream& rng) {
  return sample_masked(weights_.values(), tried, masked_, rng);
}

void EvenDistributionSelector::fill_weights(std::vector<double>& out) const {
  out = weights_.values();
}

// ---------------------------------------------------------------- WD/D+H

DistanceHistorySelector::DistanceHistorySelector(net::NodeId source,
                                                 const net::RouteTable& routes, double alpha)
    : discount_(alpha),
      weights_(WeightVector::inverse_distance(route_distances(source, routes)).values()),
      masked_(weights_.size()),
      history_(routes.destination_count()) {}

std::optional<std::size_t> DistanceHistorySelector::select(std::span<const bool> tried,
                                                           des::RandomStream& rng) {
  // "Every time when a destination selection is about to be made, weights
  // are updated" — the update is persistent, not a per-request scratch copy.
  apply_history(weights_, history_, discount_);
  return sample_masked(weights_, tried, masked_, rng);
}

void DistanceHistorySelector::report(std::size_t index, bool admitted) {
  history_.record(index, admitted);
}

void DistanceHistorySelector::fill_weights(std::vector<double>& out) const { out = weights_; }

// ---------------------------------------------------------------- WD/D+B

DistanceBandwidthSelector::DistanceBandwidthSelector(net::NodeId source,
                                                     const net::RouteTable& routes,
                                                     signaling::ProbeService& probe,
                                                     bool mask_infeasible,
                                                     net::Bandwidth flow_bandwidth)
    : source_(source),
      routes_(&routes),
      probe_(&probe),
      mask_infeasible_(mask_infeasible),
      flow_bandwidth_(flow_bandwidth),
      distances_(route_distances(source, routes)),
      drawn_(distances_.size()),
      masked_(distances_.size()) {
  if (mask_infeasible_) {
    util::require(flow_bandwidth_ > 0.0, "infeasibility masking needs the flow bandwidth");
  }
}

void DistanceBandwidthSelector::bandwidths_to_weights(std::span<double> bandwidths) const {
  if (mask_infeasible_) {
    for (double& b : bandwidths) {
      if (b < flow_bandwidth_) {
        b = 0.0;
      }
    }
  }
  bandwidth_distance_weights(bandwidths, distances_);
}

std::optional<std::size_t> DistanceBandwidthSelector::select(std::span<const bool> tried,
                                                             des::RandomStream& rng) {
  util::require(tried.size() == drawn_.size(), "tried mask must match group size");
  // Eq. (11): one PROBE / PROBE_REPLY exchange per member route, the
  // signaling cost the paper charges WD/D+B for.
  for (std::size_t i = 0; i < drawn_.size(); ++i) {
    drawn_[i] = probe_->route_bandwidth(routes_->route(source_, i));
    if (tried[i] && std::isinf(drawn_[i])) {
      // A tried co-located member would keep all the weight (B_i = +inf);
      // without it the others keep their eq. (12) weights.
      drawn_[i] = 0.0;
    }
  }
  bandwidths_to_weights(drawn_);
  return sample_masked(drawn_, tried, masked_, rng);
}

void DistanceBandwidthSelector::fill_weights(std::vector<double>& out) const {
  out.resize(distances_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = probe_->peek_bandwidth(routes_->route(source_, i));
  }
  bandwidths_to_weights(out);
}

// ---------------------------------------------------------------- SP

ShortestPathSelector::ShortestPathSelector(net::NodeId source, const net::RouteTable& routes)
    : group_size_(routes.destination_count()) {
  order_.resize(group_size_);
  std::iota(order_.begin(), order_.end(), 0);
  const auto distances = route_distances(source, routes);
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) { return distances[a] < distances[b]; });
}

std::optional<std::size_t> ShortestPathSelector::select(std::span<const bool> tried,
                                                        des::RandomStream& /*rng*/) {
  util::require(tried.size() == group_size_, "tried mask must match group size");
  for (const std::size_t index : order_) {
    if (!tried[index]) {
      return index;
    }
  }
  return std::nullopt;
}

void ShortestPathSelector::fill_weights(std::vector<double>& out) const {
  // Deterministic policy: all probability mass on the nearest member.
  out.assign(group_size_, 0.0);
  out[order_.front()] = 1.0;
}

}  // namespace anyqos::core
