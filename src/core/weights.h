// Destination weight vectors (paper Section 4.3).
//
// A weight vector assigns each of the K group members a selection
// probability; every assignment must satisfy constraint (1): sum W_i = 1.
// This module provides the paper's constructions — uniform (2),
// inverse-distance (4), bandwidth-over-distance (12) — plus the masking /
// renormalization used when retries exclude already-tried members.
//
// Each formula is written once, over caller-owned spans, so a selector runs
// it in buffers it owns and allocates nothing per selection. WeightVector is
// the owning value type built from the same routines.
#pragma once

#include <span>
#include <vector>

namespace anyqos::core {

/// Divides `raw` by its sum in place so it sums to 1. Requires every entry
/// finite and non-negative, and a positive total.
void normalize_weights(std::span<double> raw);

/// Writes inverse-distance weights W_i ∝ 1/D_i (eq. 4) into `out`, which
/// must be as long as `distances`. Distances are route hop counts; a zero
/// distance (source co-located with a member) is treated as distance 1 so
/// the weight stays finite while remaining the largest.
void inverse_distance_weights(std::span<const std::size_t> distances, std::span<double> out);

/// Turns the route bandwidths B_i held in `weights` into
/// bandwidth-over-distance weights W_i ∝ B_i / D_i (eq. 12), in place. When
/// every B_i is zero the result falls back to inverse-distance weights so a
/// selection can still be made (the reservation will then fail and retrial
/// control takes over); the paper leaves this corner unspecified. A route
/// with no links (the source is the member's router) has B_i = +inf; eq.
/// (12)'s limit gives such members all the weight, shared equally. NaN or
/// negative bandwidths throw.
void bandwidth_distance_weights(std::span<double> weights,
                                std::span<const std::size_t> distances);

/// Writes `weights` with `excluded` members zeroed and the rest renormalized
/// into `out` (same length). Returns false, with `out` all zero, when every
/// member with positive weight is excluded.
[[nodiscard]] bool mask_weights(std::span<const double> weights, std::span<const bool> excluded,
                                std::span<double> out);

/// A probability vector over group members.
class WeightVector {
 public:
  /// Uniform weights W_i = 1/K (eq. 2, the ED assignment).
  static WeightVector uniform(std::size_t k);

  /// Inverse-distance weights (eq. 4); see inverse_distance_weights().
  static WeightVector inverse_distance(std::span<const std::size_t> distances);

  /// Wraps raw non-negative values, normalizing them to sum 1.
  /// Requires at least one positive value.
  static WeightVector normalized(std::vector<double> raw);

  [[nodiscard]] std::size_t size() const { return weights_.size(); }
  [[nodiscard]] double at(std::size_t i) const;
  [[nodiscard]] const std::vector<double>& values() const { return weights_; }

  /// Checks constraint (1) within `tolerance`.
  [[nodiscard]] bool normalized_within(double tolerance) const;

 private:
  explicit WeightVector(std::vector<double> weights) : weights_(std::move(weights)) {}

  std::vector<double> weights_;
};

}  // namespace anyqos::core
