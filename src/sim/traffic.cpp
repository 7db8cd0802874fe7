#include "src/sim/traffic.h"

#include <string>
#include <utility>

#include "src/util/require.h"

namespace anyqos::sim {

void TrafficModel::validate() const {
  util::require(arrival_rate > 0.0, "arrival rate must be positive");
  util::require(mean_holding_s > 0.0, "mean holding time must be positive");
  util::require(flow_bandwidth_bps > 0.0, "flow bandwidth must be positive");
  util::require(!sources.empty(), "traffic model needs at least one source");
}

ArrivalProcess::ArrivalProcess(TrafficModel model, const des::SeedSequence& seeds,
                               std::string_view stream_prefix)
    : model_(std::move(model)),
      arrivals_(seeds.stream(std::string(stream_prefix) + "arrivals")),
      sources_(seeds.stream(std::string(stream_prefix) + "sources")),
      holdings_(seeds.stream(std::string(stream_prefix) + "holding")) {
  model_.validate();
}

double ArrivalProcess::next_interarrival() {
  return arrivals_.exponential(1.0 / model_.arrival_rate);
}

net::NodeId ArrivalProcess::draw_source() {
  return model_.sources[sources_.uniform_index(model_.sources.size())];
}

double ArrivalProcess::draw_holding() { return holdings_.exponential(model_.mean_holding_s); }

}  // namespace anyqos::sim
