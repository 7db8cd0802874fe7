#include "src/core/history.h"

#include <cmath>

#include "src/core/weights.h"
#include "src/util/require.h"

namespace anyqos::core {

AdmissionHistory::AdmissionHistory(std::size_t k) : failures_(k, 0) {
  util::require(k >= 1, "history needs at least one member");
}

void AdmissionHistory::record(std::size_t index, bool success) {
  util::require(index < failures_.size(), "history index out of range");
  if (success) {
    failures_[index] = 0;
  } else {
    ++failures_[index];
  }
}

std::size_t AdmissionHistory::consecutive_failures(std::size_t index) const {
  util::require(index < failures_.size(), "history index out of range");
  return failures_[index];
}

void AdmissionHistory::reset() { failures_.assign(failures_.size(), 0); }

HistoryDiscount::HistoryDiscount(double alpha) : alpha_(alpha) {
  util::require(alpha >= 0.0 && alpha <= 1.0, "alpha must be in [0,1]");
}

double HistoryDiscount::extend(std::size_t h) {
  if (h >= kTableLength) {
    return std::pow(alpha_, static_cast<double>(h));
  }
  for (; filled_ <= h; ++filled_) {
    table_[filled_] = std::pow(alpha_, static_cast<double>(filled_));
  }
  return table_[h];
}

void apply_history(std::span<double> weights, const AdmissionHistory& history,
                   HistoryDiscount& discount) {
  util::require(weights.size() == history.size(), "weights and history sizes must match");
  const std::size_t k = weights.size();
  const std::vector<std::size_t>& failures = history.values();

  // Step 1 (eq. 8): adjustable weight mass.
  double adjustable = 0.0;
  std::size_t zero_history_members = 0;
  for (std::size_t i = 0; i < k; ++i) {
    adjustable += weights[i] * (1.0 - discount(failures[i]));
    if (failures[i] == 0) {
      ++zero_history_members;
    }
  }

  // Step 2 (eq. 9): shift mass from failing members to clean ones.
  const double share = zero_history_members > 0
                           ? adjustable / static_cast<double>(zero_history_members)
                           : 0.0;
  const auto updated = [&](std::size_t i) {
    return failures[i] != 0 ? weights[i] * discount(failures[i]) : weights[i] + share;
  };
  // The W'_i are non-negative, so they sum to zero exactly when each one is
  // zero; decide that before overwriting anything. The scan stops at the
  // first non-zero W'_i, which is almost always the first.
  std::size_t first_nonzero = 0;
  while (first_nonzero < k && updated(first_nonzero) == 0.0) {
    ++first_nonzero;
  }
  if (first_nonzero == k) {
    return;  // alpha == 0 with every member failing: no signal, keep prior weights
  }
  for (std::size_t i = 0; i < k; ++i) {
    weights[i] = updated(i);
  }
  // Step 3 (eq. 10): renormalize.
  normalize_weights(weights);
}

}  // namespace anyqos::core
