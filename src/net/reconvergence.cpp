#include "src/net/reconvergence.h"

#include "src/net/metrics.h"
#include "src/util/require.h"

namespace anyqos::net {

FixedReconvergence::FixedReconvergence(double delay_s) : delay_s_(delay_s) {
  util::require(delay_s >= 0.0, "reconvergence delay must be non-negative");
}

FloodingReconvergence::FloodingReconvergence(double per_round_s) : per_round_s_(per_round_s) {
  util::require(per_round_s > 0.0, "per-round flooding delay must be positive");
}

double FloodingReconvergence::delay_s(const Topology& topology) const {
  return static_cast<double>(diameter(topology) + 1) * per_round_s_;
}

}  // namespace anyqos::net
