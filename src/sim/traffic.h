// Flow-level traffic model (paper Section 5.1).
//
// Requests for anycast flow establishment form a Poisson process with total
// rate lambda; each request's source is drawn uniformly from the source set
// ("chosen randomly among those hosts that attach the routers with the odd
// identification numbers"); flow lifetimes are exponential with mean 180 s;
// every flow requires 64 kbit/s.
#pragma once

#include <string_view>
#include <vector>

#include "src/des/random.h"
#include "src/net/topology.h"

namespace anyqos::sim {

/// Static description of the offered anycast traffic.
struct TrafficModel {
  double arrival_rate = 0.0;                    ///< total lambda, requests/s
  double mean_holding_s = 180.0;                ///< mean flow lifetime
  net::Bandwidth flow_bandwidth_bps = 64'000.0; ///< per-flow requirement
  std::vector<net::NodeId> sources;             ///< AC-routers receiving requests

  /// Validates all fields; throws std::invalid_argument on nonsense.
  void validate() const;

  /// Offered traffic intensity in erlangs (lambda * mean holding).
  [[nodiscard]] double offered_erlangs() const { return arrival_rate * mean_holding_s; }
};

/// Draws the stochastic primitives of the traffic model from dedicated RNG
/// streams, so that e.g. changing how many flows are admitted does not change
/// the arrival sequence (common random numbers across compared systems).
class ArrivalProcess {
 public:
  /// Streams are derived from `seeds` under fixed names ("arrivals",
  /// "sources", "holding"), each preceded by `stream_prefix` so several
  /// processes can share one seed universe without sharing draws.
  ArrivalProcess(TrafficModel model, const des::SeedSequence& seeds,
                 std::string_view stream_prefix = {});

  /// Time until the next request (exponential, rate lambda).
  double next_interarrival();
  /// Source router of the next request (uniform over the source set).
  net::NodeId draw_source();
  /// Lifetime of an admitted flow (exponential, mean holding time).
  double draw_holding();

  [[nodiscard]] const TrafficModel& model() const { return model_; }

 private:
  TrafficModel model_;
  des::RandomStream arrivals_;
  des::RandomStream sources_;
  des::RandomStream holdings_;
};

}  // namespace anyqos::sim
