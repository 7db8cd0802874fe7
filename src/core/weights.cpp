#include "src/core/weights.h"

#include <algorithm>
#include <cmath>

#include "src/util/require.h"

namespace anyqos::core {

void normalize_weights(std::span<double> raw) {
  double total = 0.0;
  for (const double w : raw) {
    util::require(w >= 0.0 && std::isfinite(w), "weights must be finite and non-negative");
    total += w;
  }
  util::require(total > 0.0, "weight normalization requires a positive total");
  for (double& w : raw) {
    w /= total;
  }
}

void inverse_distance_weights(std::span<const std::size_t> distances, std::span<double> out) {
  util::require(!distances.empty(), "weight vector needs at least one member");
  util::require(out.size() == distances.size(), "weights and distances must have equal length");
  for (std::size_t i = 0; i < distances.size(); ++i) {
    out[i] = 1.0 / static_cast<double>(std::max<std::size_t>(distances[i], 1));
  }
  normalize_weights(out);
}

void bandwidth_distance_weights(std::span<double> weights,
                                std::span<const std::size_t> distances) {
  util::require(weights.size() == distances.size(),
                "bandwidths and distances must have equal length");
  util::require(!weights.empty(), "weight vector needs at least one member");
  double total = 0.0;
  std::size_t unbounded = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    util::require(weights[i] >= 0.0, "route bandwidths must be non-negative (not NaN)");
    if (std::isinf(weights[i])) {
      ++unbounded;
      continue;
    }
    weights[i] /= static_cast<double>(std::max<std::size_t>(distances[i], 1));
    total += weights[i];
  }
  if (unbounded > 0) {
    // The limit of eq. (12) as B_i -> +inf: the link-free routes share all
    // the weight.
    for (double& w : weights) {
      w = std::isinf(w) ? 1.0 / static_cast<double>(unbounded) : 0.0;
    }
    return;
  }
  if (total <= 0.0) {
    inverse_distance_weights(distances, weights);
    return;
  }
  normalize_weights(weights);
}

bool mask_weights(std::span<const double> weights, std::span<const bool> excluded,
                  std::span<double> out) {
  util::require(excluded.size() == weights.size(), "mask length must match weight count");
  util::require(out.size() == weights.size(), "mask output must match weight count");
  double total = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (excluded[i]) {
      out[i] = 0.0;
    } else {
      out[i] = weights[i];
      total += weights[i];
    }
  }
  if (total <= 0.0) {
    return false;  // every untried member has zero weight: out is all zero
  }
  for (double& w : out) {
    w /= total;
  }
  return true;
}

WeightVector WeightVector::uniform(std::size_t k) {
  util::require(k >= 1, "weight vector needs at least one member");
  return WeightVector(std::vector<double>(k, 1.0 / static_cast<double>(k)));
}

WeightVector WeightVector::inverse_distance(std::span<const std::size_t> distances) {
  std::vector<double> weights(distances.size());
  inverse_distance_weights(distances, weights);
  return WeightVector(std::move(weights));
}

WeightVector WeightVector::normalized(std::vector<double> raw) {
  util::require(!raw.empty(), "weight vector needs at least one member");
  normalize_weights(raw);
  return WeightVector(std::move(raw));
}

double WeightVector::at(std::size_t i) const {
  util::require(i < weights_.size(), "weight index out of range");
  return weights_[i];
}

bool WeightVector::normalized_within(double tolerance) const {
  double total = 0.0;
  for (const double w : weights_) {
    if (w < 0.0) {
      return false;
    }
    total += w;
  }
  return std::abs(total - 1.0) <= tolerance;
}

}  // namespace anyqos::core
