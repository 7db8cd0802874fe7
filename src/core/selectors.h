// Concrete destination-selection algorithms (paper Sections 4.3.1-4.3.2 and
// the SP baseline from Section 5.1).
#pragma once

#include <vector>

#include "src/core/history.h"
#include "src/core/selector.h"
#include "src/core/weights.h"

namespace anyqos::core {

// ED, WD/D+H and WD/D+B draw from their weight vector restricted to the
// untried members. Each selector masks into a K-long buffer it owns, so a
// warm select() allocates nothing.

/// ED (eq. 2): every member equally likely. Uses no status information
/// beyond the group size.
class EvenDistributionSelector final : public DestinationSelector {
 public:
  explicit EvenDistributionSelector(std::size_t group_size);

  std::optional<std::size_t> select(std::span<const bool> tried, des::RandomStream& rng) override;
  void fill_weights(std::vector<double>& out) const override;
  [[nodiscard]] std::string name() const override { return "ED"; }

 private:
  WeightVector weights_;
  std::vector<double> masked_;  // per-selection scratch
};

/// WD/D+H (eqs. 4-10): inverse-distance base weights, persistently adjusted
/// by the local admission history before every selection.
class DistanceHistorySelector final : public DestinationSelector {
 public:
  DistanceHistorySelector(net::NodeId source, const net::RouteTable& routes, double alpha);

  std::optional<std::size_t> select(std::span<const bool> tried, des::RandomStream& rng) override;
  void report(std::size_t index, bool admitted) override;
  void fill_weights(std::vector<double>& out) const override;
  [[nodiscard]] std::string name() const override { return "WD/D+H"; }

  [[nodiscard]] const AdmissionHistory& history() const { return history_; }
  [[nodiscard]] double alpha() const { return discount_.alpha(); }

 private:
  HistoryDiscount discount_;
  std::vector<double> weights_;  // persistent, evolves with every selection
  std::vector<double> masked_;   // per-selection scratch
  AdmissionHistory history_;
};

/// WD/D+B (eqs. 11-12): weights recomputed from live route bottleneck
/// bandwidth (via the probe service) over route distance at every selection.
/// Only select() probes; fill_weights() reads the same bottlenecks from
/// the ledger without charging a message, so observers leave the signaling
/// tallies alone.
class DistanceBandwidthSelector final : public DestinationSelector {
 public:
  DistanceBandwidthSelector(net::NodeId source, const net::RouteTable& routes,
                            signaling::ProbeService& probe, bool mask_infeasible,
                            net::Bandwidth flow_bandwidth);

  std::optional<std::size_t> select(std::span<const bool> tried, des::RandomStream& rng) override;
  void fill_weights(std::vector<double>& out) const override;
  [[nodiscard]] std::string name() const override { return "WD/D+B"; }

 private:
  /// Turns route bandwidths B_i into eq. (12) weights in place, zeroing the
  /// members infeasibility masking excludes first.
  void bandwidths_to_weights(std::span<double> bandwidths) const;

  net::NodeId source_;
  const net::RouteTable* routes_;
  signaling::ProbeService* probe_;
  bool mask_infeasible_;
  net::Bandwidth flow_bandwidth_;
  std::vector<std::size_t> distances_;
  std::vector<double> drawn_;   // this selection's eq. (12) weights
  std::vector<double> masked_;  // per-selection scratch
};

/// SP baseline: deterministically tries members in increasing fixed-route
/// distance (ties toward the lower member index). With R = 1 this is exactly
/// the paper's SP system — anycast traffic from one source always goes to the
/// same nearest member.
class ShortestPathSelector final : public DestinationSelector {
 public:
  ShortestPathSelector(net::NodeId source, const net::RouteTable& routes);

  std::optional<std::size_t> select(std::span<const bool> tried, des::RandomStream& rng) override;
  void fill_weights(std::vector<double>& out) const override;
  [[nodiscard]] std::string name() const override { return "SP"; }

 private:
  std::vector<std::size_t> order_;  // member indices sorted by distance
  std::size_t group_size_;
};

}  // namespace anyqos::core
