#include "src/net/reconvergence.h"

#include "src/net/metrics.h"
#include "src/util/require.h"

namespace anyqos::net {

double flooding_delay_s(const Topology& topology, double per_round_s) {
  util::require(per_round_s > 0.0, "per-round flooding delay must be positive");
  return static_cast<double>(diameter(topology) + 1) * per_round_s;
}

}  // namespace anyqos::net
