// Destination-selection interface (paper Section 4.3).
//
// A selector is bound to one AC-router (source) and one anycast group; it
// picks which member to try next during the DAC loop, and receives the
// reservation outcome so stateful algorithms (WD/D+H) can learn from it.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/group.h"
#include "src/des/random.h"
#include "src/net/routing.h"
#include "src/signaling/probe.h"

namespace anyqos::core {

/// Which destination-selection algorithm a DAC system runs (the `A` in the
/// paper's <A, R> system notation, plus the SP baseline policy).
enum class SelectionAlgorithm {
  kEvenDistribution,      // ED              — no status information
  kDistanceHistory,       // WD/D+H          — route distance + admission history
  kDistanceBandwidth,     // WD/D+B          — route distance + route bandwidth
  kShortestPath,          // SP baseline     — always the nearest member
};

/// Parses "ED", "WD/D+H", "WD/D+B", "SP" (case-sensitive, paper spelling).
SelectionAlgorithm parse_algorithm(const std::string& name);
std::string to_string(SelectionAlgorithm algorithm);

/// Per-(AC-router, group) destination selection strategy.
class DestinationSelector {
 public:
  virtual ~DestinationSelector() = default;

  /// Picks the member index to try next, given `tried[i]` marking members
  /// already attempted for this request. Returns nullopt when every member
  /// has been tried. `rng` supplies the randomized choice.
  virtual std::optional<std::size_t> select(std::span<const bool> tried,
                                            des::RandomStream& rng) = 0;

  /// Reports the reservation outcome of the most recent attempt on member
  /// `index`. Default: no-op (stateless algorithms).
  virtual void report(std::size_t index, bool admitted);

  /// Writes the weight vector the next selection would draw from (before
  /// masking) into `out`, resized to the group size. Once `out` has that
  /// capacity a snapshot allocates nothing, so tracing, monitoring and the
  /// auditor keep one buffer each.
  virtual void fill_weights(std::vector<double>& out) const = 0;

  /// fill_weights() into a new vector, for tests and one-off reads.
  [[nodiscard]] std::vector<double> weights() const;

  /// Algorithm label for reports (matches the paper's names).
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Everything needed to construct any selector for one (source, group) pair.
struct SelectorEnvironment {
  net::NodeId source = net::kInvalidNode;
  const AnycastGroup* group = nullptr;       ///< must outlive the selector
  const net::RouteTable* routes = nullptr;   ///< must outlive the selector
  /// Live route-bandwidth oracle; required by kDistanceBandwidth only.
  signaling::ProbeService* probe = nullptr;
  /// WD/D+H discount parameter alpha in [0,1] (paper leaves the evaluated
  /// value unstated; see DESIGN.md — default 0.5, swept by ablation_alpha).
  double alpha = 0.5;
  /// WD/D+B ablation: zero the weight of members whose probed route
  /// bandwidth cannot fit this bandwidth demand (off reproduces eq. 12).
  bool wdb_mask_infeasible = false;
  /// Flow demand used by wdb_mask_infeasible.
  net::Bandwidth flow_bandwidth = 0.0;
};

/// Factory covering all algorithms.
std::unique_ptr<DestinationSelector> make_selector(SelectionAlgorithm algorithm,
                                                   const SelectorEnvironment& env);

}  // namespace anyqos::core
