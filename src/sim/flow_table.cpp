#include "src/sim/flow_table.h"

#include <algorithm>
#include <string>

#include "src/util/annotations.h"
#include "src/util/require.h"

namespace anyqos::sim {

namespace {

// The message names the flow, so it is built only once a check has failed:
// take() runs on every departure.
[[noreturn]] void fail_with_id(const char* what, FlowId id) {
  std::string message = what;  // append form: GCC 12 -Wrestrict, PR 105329
  message += std::to_string(id);
  util::fail_requirement(message);
}

}  // namespace

FlowId FlowTable::insert(ActiveFlow flow) {
  const FlowId id = next_id_++;
  flow.id = id;
  flows_.emplace(id, std::move(flow));
  return id;
}

void FlowTable::restore(ActiveFlow flow) {
  util::require(flow.id != 0 && flow.id < next_id_, "restore requires an id this table issued");
  if (flows_.find(flow.id) != flows_.end()) {
    fail_with_id("flow is already active: ", flow.id);
  }
  const FlowId id = flow.id;
  flows_.emplace(id, std::move(flow));
}

ActiveFlow FlowTable::take(FlowId id) {
  const auto it = flows_.find(id);
  if (it == flows_.end()) {
    fail_with_id("flow not active: ", id);
  }
  ActiveFlow flow = std::move(it->second);
  flows_.erase(it);
  return flow;
}

bool FlowTable::contains(FlowId id) const { return flows_.find(id) != flows_.end(); }

const ActiveFlow& FlowTable::get(FlowId id) const {
  const auto it = flows_.find(id);
  if (it == flows_.end()) {
    fail_with_id("flow not active: ", id);
  }
  return it->second;
}

std::vector<FlowId> FlowTable::flows_using_link(net::LinkId link) const {
  std::vector<FlowId> ids;
  ANYQOS_DETLINT_ALLOW(unordered_artifact_iteration, "sorted-key extraction");
  for (const auto& [id, flow] : flows_) {
    if (std::find(flow.route->links.begin(), flow.route->links.end(), link) !=
        flow.route->links.end()) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<FlowId> FlowTable::flows_to_member(std::size_t destination_index) const {
  std::vector<FlowId> ids;
  ANYQOS_DETLINT_ALLOW(unordered_artifact_iteration, "sorted-key extraction");
  for (const auto& [id, flow] : flows_) {
    if (flow.destination_index == destination_index) {
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

void FlowTable::for_each(const std::function<void(const ActiveFlow&)>& visit) const {
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  ANYQOS_DETLINT_ALLOW(unordered_artifact_iteration, "sorted-key extraction");
  for (const auto& [id, flow] : flows_) {
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const FlowId id : ids) {
    visit(flows_.at(id));
  }
}

}  // namespace anyqos::sim
