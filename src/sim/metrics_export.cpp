#include "src/sim/metrics_export.h"

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/net/topology.h"
#include "src/signaling/message.h"

namespace anyqos::sim {

void export_metrics(const Simulation& simulation, const SimulationConfig& config,
                    const SimulationResult& result, obs::MetricsRegistry& registry,
                    const obs::Labels& extra) {
  // Base label set shared by every family: the system label plus whatever the
  // caller appends (e.g. the chaos cell index).
  obs::Labels system{{"system", result.system_label}};
  system.insert(system.end(), extra.begin(), extra.end());
  const auto with = [&system](std::initializer_list<obs::Label> more) {
    obs::Labels labels = system;
    labels.insert(labels.end(), more.begin(), more.end());
    return labels;
  };

  auto outcome_counter = [&](const char* outcome, std::uint64_t value) {
    obs::Counter& counter =
        registry.counter("anyqos_requests_total", "Flow requests by final outcome.",
                         with({{"outcome", outcome}}));
    counter.increment(value);
  };
  outcome_counter("admitted", result.admitted);
  outcome_counter("rejected", result.offered - result.admitted);
  if (result.shed > 0) {
    // Shed requests never enter the offered tally (no reservation walk ran),
    // so they get their own outcome row. Gated on non-zero to keep the
    // export byte-identical for runs without a governor.
    outcome_counter("shed", result.shed);
  }

  registry
      .counter("anyqos_flows_dropped_total",
               "Admitted flows torn down early by link faults or member churn.", system)
      .increment(result.dropped);

  auto teardown_counter = [&](const char* cause, std::uint64_t value) {
    registry
        .counter("anyqos_teardowns_total", "Flow teardowns by cause.",
                 with({{"cause", cause}}))
        .increment(value);
  };
  teardown_counter("explicit", result.explicit_teardowns);
  teardown_counter("link_fault", result.dropped_by_fault);
  teardown_counter("churn", result.dropped_by_churn);
  teardown_counter("orphan_reclaim", result.resilience.orphans_reclaimed);

  auto failover_counter = [&](const char* outcome, std::uint64_t value) {
    registry
        .counter("anyqos_failover_total",
                 "Churn-displaced flows re-offered to the surviving members.",
                 with({{"outcome", outcome}}))
        .increment(value);
  };
  failover_counter("admitted", result.failover_admitted);
  failover_counter("rejected", result.failover_attempts - result.failover_admitted);

  if (config.path_repair || config.reconvergence_delay_s.has_value() ||
      !config.node_faults.empty()) {
    // Failure-domain families appear only when the plane is engaged, keeping
    // the export byte-identical for runs without it (same gate as `shed`).
    auto repair_counter = [&](const char* outcome, std::uint64_t value) {
      registry
          .counter("anyqos_path_repair_total",
                   "Broken flows re-signaled after reconvergence, by outcome.",
                   with({{"outcome", outcome}}))
          .increment(value);
    };
    repair_counter("repaired", result.repaired);
    repair_counter("unrepairable", result.unrepairable);
    registry
        .counter("anyqos_reconvergences_total",
                 "Route-table recomputes committed after topology changes.", system)
        .increment(result.reconvergences);
    registry
        .counter("anyqos_node_outages_total",
                 "Router crash transitions applied (overlaps merged).", system)
        .increment(result.node_outages);
  }

  auto recovery_counter = [&](const char* event, std::uint64_t value) {
    registry
        .counter("anyqos_signaling_recovery_total",
                 "Resilient control-plane recovery events.",
                 with({{"event", event}}))
        .increment(value);
  };
  recovery_counter("timeout", result.resilience.timeouts);
  recovery_counter("retransmit", result.resilience.retransmits);
  recovery_counter("give_up", result.resilience.give_ups);
  recovery_counter("resv_orphan", result.resilience.resv_orphans);
  recovery_counter("tear_orphan", result.resilience.tear_orphans);
  recovery_counter("message_lost", result.resilience.messages_lost);
  recovery_counter("message_killed_by_outage", result.resilience.messages_killed_by_outage);
  registry
      .gauge("anyqos_orphaned_bandwidth_reclaimed_bps",
             "Bandwidth released by soft-state orphan reclamation, summed.", system)
      .set(result.resilience.orphaned_bandwidth_reclaimed_bps);

  registry
      .gauge("anyqos_admission_probability",
             "Fraction of offered requests admitted (paper's AP metric).", system)
      .set(result.admission_probability);
  registry
      .gauge("anyqos_admission_probability_ci_halfwidth",
             "95% batch-means confidence-interval half-width on AP.", system)
      .set(result.admission_ci.half_width);

  // Replay the integer tries-per-request distribution into a le-bucketed
  // histogram; one bucket per possible attempt count keeps it lossless.
  const std::size_t max_attempts =
      std::max<std::size_t>({result.attempts_histogram.max_value(), config.max_tries,
                             std::size_t{1}});
  std::vector<double> bounds;
  bounds.reserve(max_attempts);
  for (std::size_t i = 1; i <= max_attempts; ++i) {
    bounds.push_back(static_cast<double>(i));
  }
  obs::Histogram& attempts = registry.histogram(
      "anyqos_attempts_per_request",
      "Reservation attempts needed per request (paper's retrial metric).", bounds, system);
  for (std::size_t v = 0; v <= result.attempts_histogram.max_value(); ++v) {
    const std::size_t n = result.attempts_histogram.count(v);
    if (n > 0) {
      attempts.observe(static_cast<double>(v), static_cast<std::uint64_t>(n));
    }
  }

  registry
      .gauge("anyqos_messages_per_request_mean",
             "Mean signaling messages (hop traversals) per request.", system)
      .set(result.average_messages);

  for (std::size_t k = 0; k < signaling::kMessageKindCount; ++k) {
    const auto kind = static_cast<signaling::MessageKind>(k);
    registry
        .counter("anyqos_signaling_messages_total",
                 "Signaling hop traversals by message kind.",
                 with({{"kind", signaling::to_string(kind)}}))
        .increment(result.messages.by_kind(kind));
  }

  const net::Topology& topology = simulation.ledger().topology();
  const core::AnycastGroup& group = simulation.group();
  for (std::size_t i = 0; i < result.per_destination_admissions.size(); ++i) {
    const std::string member = i < group.size()
                                   ? topology.router_name(group.member(i))
                                   : "member" + std::to_string(i);
    registry
        .counter("anyqos_admissions_total", "Admitted flows by anycast group member.",
                 with({{"member", member}}))
        .increment(result.per_destination_admissions[i]);
  }

  if (config.kernel_stats != nullptr) {
    // Kernel telemetry families appear only when the sink rode the run,
    // keeping the exposition byte-identical for plain runs (DESIGN.md §15).
    config.kernel_stats->export_to(registry, system);
  }

  registry
      .gauge("anyqos_active_flows_avg",
             "Time-averaged number of concurrently active flows.", system)
      .set(result.average_active_flows);
  registry
      .gauge("anyqos_link_utilization_mean",
             "Time-averaged utilization, mean over all links.", system)
      .set(result.mean_link_utilization);
  registry
      .gauge("anyqos_link_utilization_max",
             "Time-averaged utilization of the most loaded link.", system)
      .set(result.max_link_utilization);

  // Instantaneous (end-of-run) per-link anycast utilization from the ledger.
  for (net::LinkId id = 0; id < topology.link_count(); ++id) {
    const net::Arc& arc = topology.link(id);
    const std::string label =
        topology.router_name(arc.from) + "->" + topology.router_name(arc.to);
    registry
        .gauge("anyqos_link_utilization",
               "Anycast-share utilization per directed link at end of run.",
               with({{"link", label}}))
        .set(simulation.ledger().utilization(id));
  }
}

}  // namespace anyqos::sim
