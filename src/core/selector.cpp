#include "src/core/selector.h"

#include "src/core/selectors.h"
#include "src/util/require.h"

namespace anyqos::core {

void DestinationSelector::report(std::size_t /*index*/, bool /*admitted*/) {}

std::vector<double> DestinationSelector::weights() const {
  std::vector<double> out;
  fill_weights(out);
  return out;
}

SelectionAlgorithm parse_algorithm(const std::string& name) {
  if (name == "ED") {
    return SelectionAlgorithm::kEvenDistribution;
  }
  if (name == "WD/D+H") {
    return SelectionAlgorithm::kDistanceHistory;
  }
  if (name == "WD/D+B") {
    return SelectionAlgorithm::kDistanceBandwidth;
  }
  if (name == "SP") {
    return SelectionAlgorithm::kShortestPath;
  }
  util::require(false, "unknown selection algorithm: " + name);
  util::unreachable("parse_algorithm");
}

std::string to_string(SelectionAlgorithm algorithm) {
  switch (algorithm) {
    case SelectionAlgorithm::kEvenDistribution:
      return "ED";
    case SelectionAlgorithm::kDistanceHistory:
      return "WD/D+H";
    case SelectionAlgorithm::kDistanceBandwidth:
      return "WD/D+B";
    case SelectionAlgorithm::kShortestPath:
      return "SP";
  }
  util::unreachable("SelectionAlgorithm");
}

namespace {

void check_common(const SelectorEnvironment& env) {
  util::require(env.group != nullptr, "selector environment needs a group");
  util::require(env.routes != nullptr, "selector environment needs a route table");
  util::require(env.group->size() == env.routes->destination_count(),
                "route table destinations must match group size");
  util::require(env.source != net::kInvalidNode, "selector environment needs a source");
}

}  // namespace

std::unique_ptr<DestinationSelector> make_selector(SelectionAlgorithm algorithm,
                                                   const SelectorEnvironment& env) {
  check_common(env);
  switch (algorithm) {
    case SelectionAlgorithm::kEvenDistribution:
      return std::make_unique<EvenDistributionSelector>(env.group->size());
    case SelectionAlgorithm::kDistanceHistory:
      return std::make_unique<DistanceHistorySelector>(env.source, *env.routes, env.alpha);
    case SelectionAlgorithm::kDistanceBandwidth:
      util::require(env.probe != nullptr, "WD/D+B requires a probe service");
      return std::make_unique<DistanceBandwidthSelector>(
          env.source, *env.routes, *env.probe, env.wdb_mask_infeasible, env.flow_bandwidth);
    case SelectionAlgorithm::kShortestPath:
      return std::make_unique<ShortestPathSelector>(env.source, *env.routes);
  }
  util::unreachable("make_selector");
}

}  // namespace anyqos::core
