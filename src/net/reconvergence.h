// Reconvergence policies: how long the routing plane takes to react to a
// topology change.
//
// The paper assumes routes "obtained via the existing routing protocols" and
// never changes them; real routing protocols do change them, after a
// convergence delay during which signaling walks stale routes and fails with
// PATH_ERR. A ReconvergencePolicy models only that delay — the route
// recomputation itself is RouteTable::recompute, driven by sim::Simulation.
#pragma once

#include <string>

#include "src/net/topology.h"

namespace anyqos::net {

/// Models the time between a topology change and the moment every router's
/// route table reflects it. Stateless with respect to individual changes:
/// Simulation restarts the delay on each change (a burst of failures
/// converges `delay_s` after the *last* one, matching how flooding storms
/// coalesce).
class ReconvergencePolicy {
 public:
  virtual ~ReconvergencePolicy() = default;

  /// Seconds from a topology change to a fully converged route table.
  [[nodiscard]] virtual double delay_s(const Topology& topology) const = 0;

  /// Short label for summaries and artifacts (e.g. "instant", "flooding").
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Oracle: routes recompute in the same simulated instant as the change
/// (after the current event batch). The upper bound on repair performance.
class InstantReconvergence final : public ReconvergencePolicy {
 public:
  [[nodiscard]] double delay_s(const Topology&) const override { return 0.0; }
  [[nodiscard]] std::string name() const override { return "instant"; }
};

/// Fixed operator-configured delay, independent of topology shape.
class FixedReconvergence final : public ReconvergencePolicy {
 public:
  explicit FixedReconvergence(double delay_s);
  [[nodiscard]] double delay_s(const Topology&) const override { return delay_s_; }
  [[nodiscard]] std::string name() const override { return "fixed"; }

 private:
  double delay_s_;
};

/// O(diameter) delay derived from the link-state flooding model: an LSA
/// reaches the farthest router in `diameter` synchronous flooding rounds
/// (LinkStateProtocol::converge observes exactly this bound), plus one round
/// for the local SPF recompute. delay = (diameter + 1) * per_round_s, with
/// net::diameter of the (connected) topology passed in on each call.
class FloodingReconvergence final : public ReconvergencePolicy {
 public:
  explicit FloodingReconvergence(double per_round_s);
  [[nodiscard]] double delay_s(const Topology& topology) const override;
  [[nodiscard]] std::string name() const override { return "flooding"; }

 private:
  double per_round_s_;
};

}  // namespace anyqos::net
