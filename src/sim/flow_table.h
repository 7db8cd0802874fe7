// Bookkeeping of active (admitted, not yet departed) anycast flows.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/net/topology.h"

namespace anyqos::sim {

using FlowId = std::uint64_t;

/// One admitted flow currently holding bandwidth.
struct ActiveFlow {
  FlowId id = 0;
  /// The admission request that created the flow (trace/span join key).
  std::uint64_t request_id = 0;
  net::NodeId source = net::kInvalidNode;
  std::uint32_t group = 0;            ///< the flow's anycast group (0 = primary)
  std::size_t destination_index = 0;  ///< index into that group's members
  /// Links holding the reservation: a route owned by the admitting group's
  /// RouteTable or its admission policy, both of which outlive the flow.
  const net::Path* route = nullptr;
  net::Bandwidth bandwidth_bps = 0.0;
  double admitted_at = 0.0;
};

/// Id-keyed table of active flows with link-based lookup for fault handling.
class FlowTable {
 public:
  /// Registers a flow; assigns and returns a fresh id.
  FlowId insert(ActiveFlow flow);

  /// Re-registers a flow that was previously removed, keeping its id (path
  /// repair: the departure timer armed at admission still refers to it).
  /// The id must have been issued by this table and must not be active.
  void restore(ActiveFlow flow);

  /// Removes and returns the flow; throws std::invalid_argument if absent.
  ActiveFlow take(FlowId id);

  /// True when `id` is active (it may have been removed by a fault).
  [[nodiscard]] bool contains(FlowId id) const;
  [[nodiscard]] const ActiveFlow& get(FlowId id) const;

  [[nodiscard]] std::size_t size() const { return flows_.size(); }
  [[nodiscard]] bool empty() const { return flows_.empty(); }

  /// Ids of flows whose route crosses directed link `link`, in ascending id
  /// order (deterministic fault processing).
  [[nodiscard]] std::vector<FlowId> flows_using_link(net::LinkId link) const;

  /// Ids of flows pinned to group member `destination_index`, in ascending id
  /// order (deterministic churn processing).
  [[nodiscard]] std::vector<FlowId> flows_to_member(std::size_t destination_index) const;

  /// Applies `visit` to every active flow in ascending id order.
  void for_each(const std::function<void(const ActiveFlow&)>& visit) const;

 private:
  std::unordered_map<FlowId, ActiveFlow> flows_;
  FlowId next_id_ = 1;
};

}  // namespace anyqos::sim
