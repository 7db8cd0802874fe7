#include "src/sim/simulation.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>

#include "src/control/adaptive_retrial.h"
#include "src/core/retrial.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::sim {

namespace {

/// The primary group, described by the config's top-level fields.
GroupSpec primary_spec(const SimulationConfig& config) {
  GroupSpec spec;
  spec.address = "anycast://sim";
  spec.members = config.group_members;
  spec.arrival_rate = config.traffic.arrival_rate;
  spec.flow_bandwidth_bps = config.traffic.flow_bandwidth_bps;
  spec.algorithm = config.algorithm;
  spec.max_tries = config.max_tries;
  spec.alpha = config.alpha;
  return spec;
}

void validate_group(const GroupSpec& spec, const net::Topology& topology) {
  util::require(!spec.members.empty(), "simulation needs a non-empty anycast group");
  for (const net::NodeId m : spec.members) {
    util::require(m < topology.router_count(), "group member out of range");
  }
  util::require(spec.max_tries >= 1, "retrial bound R must be at least 1");
  util::require(spec.alpha >= 0.0 && spec.alpha <= 1.0, "alpha must be in [0,1]");
}

/// A group's traffic: the run's sources and holding times at its own rate
/// and flow size.
TrafficModel group_traffic(const TrafficModel& shared, const GroupSpec& spec) {
  TrafficModel traffic = shared;
  traffic.arrival_rate = spec.arrival_rate;
  traffic.flow_bandwidth_bps = spec.flow_bandwidth_bps;
  return traffic;
}

}  // namespace

Simulation::GroupState::GroupState(const net::Topology& topology, const GroupSpec& spec,
                                   const TrafficModel& shared, const des::SeedSequence& seeds,
                                   std::string_view stream_prefix)
    : group(spec.address, spec.members),
      routes(topology, spec.members),
      arrivals(group_traffic(shared, spec), seeds, stream_prefix),
      algorithm(spec.algorithm),
      max_tries(spec.max_tries),
      alpha(spec.alpha),
      metrics(spec.members.size()) {}

Simulation::Simulation(const net::Topology& topology, SimulationConfig config)
    : topology_(&topology),
      config_(std::move(config)),
      ledger_(topology, config_.anycast_share),
      simulator_(config_.seed),
      control_rng_(simulator_.stream("control-plane")),
      probe_(ledger_, counter_),
      selection_rng_(simulator_.stream("selection")),
      link_utilization_(topology.link_count()) {
  util::require(config_.warmup_s >= 0.0, "warmup must be non-negative");
  util::require(config_.measure_s > 0.0, "measurement window must be positive");
  util::require(config_.drain_max_sim_s >= 0.0, "drain sim-time cap must be non-negative");
  for (const net::NodeId s : config_.traffic.sources) {
    util::require(s < topology.router_count(), "source router out of range");
  }
  const GroupSpec primary_group = primary_spec(config_);
  validate_group(primary_group, topology);
  for (const GroupSpec& spec : config_.extra_groups) {
    validate_group(spec, topology);
  }
  for (const LinkFault& fault : config_.faults) {
    util::require(topology.find_link(fault.a, fault.b).has_value(),
                  "fault references a non-existent link");
    util::require(fault.repair_at > fault.fail_at, "fault repair must follow failure");
  }
  for (const MemberChurnEvent& event : config_.churn) {
    util::require(event.member_index < primary_group.members.size(),
                  "churn event references a member outside the group");
    util::require(event.up_at > event.down_at, "member recovery must follow the outage");
  }
  for (const NodeFault& fault : config_.node_faults) {
    util::require(fault.node < topology.router_count(),
                  "node fault references a router out of range");
    util::require(fault.repair_at > fault.fail_at, "node recovery must follow the crash");
  }

  util::require(!(config_.use_gdi && config_.policy),
                "use_gdi and config.policy are mutually exclusive");
  const bool is_dac = !config_.use_gdi && !config_.policy;
  util::require(is_dac || !config_.resilience.has_value(),
                "resilient signaling applies to DAC runs only");
  util::require(is_dac || config_.churn.empty(), "member churn applies to DAC runs only");
  util::require(is_dac || !config_.governor.has_value(),
                "the overload governor applies to DAC runs only");
  util::require(is_dac || config_.node_faults.empty(), "node faults apply to DAC runs only");
  util::require(is_dac || !config_.reconvergence_delay_s.has_value(),
                "routing reconvergence applies to DAC runs only");
  util::require(config_.reconvergence_delay_s.value_or(0.0) >= 0.0,
                "reconvergence delay must be non-negative");
  util::require(!config_.path_repair || config_.reconvergence_delay_s.has_value(),
                "path repair re-signals over post-reconvergence routes; set "
                "config.reconvergence_delay_s");
  util::require(config_.ops_interval_s > 0.0, "ops poll interval must be positive");
  util::require((config_.ops_mailbox == nullptr && config_.ops_replay.empty()) ||
                    config_.governor.has_value(),
                "ops control (mailbox or replay) steers the governor; set config.governor");
  util::require(config_.ops_mailbox == nullptr || config_.ops_replay.empty(),
                "live ops steering and ops replay are mutually exclusive");
  for (std::size_t i = 1; i < config_.ops_replay.size(); ++i) {
    util::require(config_.ops_replay[i - 1].apply_at <= config_.ops_replay[i].apply_at,
                  "ops replay directives must be sorted by apply time");
  }
  if (!config_.extra_groups.empty()) {
    // These planes index the members of one group (or, for GDI and a
    // policy, decide for one group), so they stay single-group. Path repair
    // and ops steering need reconvergence and the governor.
    util::require(is_dac, "GDI and admission policies run one group only; extra groups need DAC");
    util::require(config_.churn.empty(), "member churn cannot run with extra groups");
    util::require(!config_.governor.has_value(),
                  "the overload governor cannot run with extra groups");
    util::require(config_.node_faults.empty(), "node faults cannot run with extra groups");
    util::require(!config_.reconvergence_delay_s.has_value(),
                  "routing reconvergence cannot run with extra groups");
  }
  // Streams of extra group i derive under "group<i>/"; the primary keeps the
  // unprefixed names, so a single-group run draws exactly as before.
  groups_.reserve(1 + config_.extra_groups.size());
  groups_.emplace_back(topology, primary_group, config_.traffic, simulator_.seeds(), "");
  for (std::size_t i = 0; i < config_.extra_groups.size(); ++i) {
    groups_.emplace_back(topology, config_.extra_groups[i], config_.traffic, simulator_.seeds(),
                         "group" + std::to_string(i + 1) + "/");
  }
  // Kernel category taxonomy for the flow plane (DESIGN.md §15). Interned
  // before any component construction so these always take the low ids;
  // wiring order is fixed, so the table is deterministic per config.
  cat_arrival_ = simulator_.category("sim.arrival");
  cat_departure_ = simulator_.category("sim.departure");
  cat_link_fault_ = simulator_.category("fault.link");
  cat_churn_ = simulator_.category("fault.churn");
  cat_node_fault_ = simulator_.category("fault.node");
  cat_reconverge_ = simulator_.category("net.reconverge");
  cat_ops_poll_ = simulator_.category("ops.poll");
  if (config_.kernel_stats != nullptr) {
    // Attached before any component can schedule: the sink must see every
    // event from the seed calendar on (soft-state refresh and orphan timers
    // start in component constructors), or its counters cannot reconcile.
    config_.kernel_stats->attach(simulator_);
  }
  if (config_.resilience.has_value()) {
    rsvp_ = std::make_unique<signaling::ResilientReservationProtocol>(
        ledger_, counter_, simulator_, control_rng_, *config_.resilience);
    resilient_ = static_cast<signaling::ResilientReservationProtocol*>(rsvp_.get());
  } else {
    rsvp_ = std::make_unique<signaling::ReservationProtocol>(ledger_, counter_);
  }
  duplex_hold_.assign(topology.link_count() / 2, 0);
  duplex_up_.assign(topology.link_count() / 2, 1);
  node_hold_.assign(topology.router_count(), 0);
  if (config_.path_repair) {
    repair_ = std::make_unique<signaling::PathRepair>(*rsvp_);
  }
  if (config_.tracer != nullptr) {
    config_.tracer->set_clock([this] { return simulator_.now(); });
  }
  // Hot-path copies: emit_trace and touch_links check these every event, so
  // keep the nullptr test a member load rather than a config indirection.
  timeline_ = config_.timeline;
  flight_ = config_.flight_recorder;
  if (config_.governor.has_value()) {
    owned_governor_ = std::make_unique<control::OverloadGovernor>(
        primary().group.size(), config_.max_tries, *config_.governor);
    governor_ = owned_governor_.get();
  }
  if (resilient_ != nullptr && flight_ != nullptr) {
    // Satellite triggers from the recovery machinery: a retransmit-budget
    // give-up or a soft-state orphan expiry lands in the ring as a note and
    // dumps the causal window that led up to it.
    resilient_->set_recovery_hook(
        [this](double time, std::string_view kind, const std::string& detail) {
          flight_->note(time, kind, detail);
          std::string reason(kind);
          reason += ' ';
          reason += detail;
          flight_->trigger(time, reason);
        });
  }
  if (config_.use_gdi) {
    policy_ = std::make_unique<core::GlobalAdmissionOracle>(topology, ledger_, primary().group);
  } else if (config_.policy) {
    policy_ = config_.policy(
        PolicyEnvironment{topology, ledger_, primary().group, primary().routes, *rsvp_});
    util::require(policy_ != nullptr, "the policy factory returned no policy");
  } else {
    // One AC-router (controller) per distinct source and group, each with
    // its own selector state — weights and history are local per the paper.
    for (GroupState& state : groups_) {
      state.controllers.resize(topology.router_count());
    }
  }
  label_ = policy_ != nullptr ? policy_->label() : system_label(config_);
}

core::AdmissionController& Simulation::controller_for(GroupState& state, net::NodeId source) {
  util::ensure(policy_ == nullptr, "policy runs have no per-source controllers");
  auto& slot = state.controllers[source];
  if (slot == nullptr) {
    core::SelectorEnvironment env;
    env.source = source;
    env.group = &state.group;
    env.routes = &state.routes;
    env.probe = &probe_;
    env.alpha = state.alpha;
    env.wdb_mask_infeasible = config_.wdb_mask_infeasible;
    env.flow_bandwidth = state.arrivals.model().flow_bandwidth_bps;
    // The governor's adaptive bound replaces the static counter policy, and
    // its breakers gate member selection; every AC-router shares the one
    // governor, so control state is system-wide (unlike selector state).
    std::unique_ptr<core::RetrialPolicy> retrial;
    if (governor_ != nullptr && governor_->options().adaptive_retrial) {
      retrial = std::make_unique<control::AdaptiveRetrialPolicy>(*governor_);
    } else {
      retrial = std::make_unique<core::CounterRetrialPolicy>(state.max_tries);
    }
    slot = std::make_unique<core::AdmissionController>(
        source, state.group, state.routes, *rsvp_,
        core::make_selector(state.algorithm, env), std::move(retrial));
    slot->set_observer(admission_observer_);
    slot->set_tracer(config_.tracer);
    if (governor_ != nullptr && governor_->options().member_breakers) {
      slot->set_member_gate(governor_);
    }
  }
  return *slot;
}

void Simulation::set_admission_observer(core::AdmissionObserver* observer) {
  admission_observer_ = observer;
  for (GroupState& state : groups_) {
    for (auto& controller : state.controllers) {
      if (controller != nullptr) {
        controller->set_observer(observer);
      }
    }
  }
}

void Simulation::active_selectors(
    std::vector<std::pair<net::NodeId, const core::DestinationSelector*>>& out) const {
  out.clear();
  for (const GroupState& state : groups_) {
    for (const auto& controller : state.controllers) {
      if (controller != nullptr) {
        out.emplace_back(controller->source(), &controller->selector());
      }
    }
  }
}

void Simulation::record_active_flows() {
  primary().metrics.record_active_flows(simulator_.now(), flows_.size());
}

void Simulation::emit_trace(TraceEventKind kind, std::uint64_t flow, net::NodeId source,
                            net::NodeId destination, std::size_t attempts,
                            double bandwidth_bps) {
  if (config_.trace == nullptr && flight_ == nullptr) {
    return;
  }
  TraceEvent event;
  event.time = simulator_.now();
  event.kind = kind;
  event.flow = flow;
  event.source = source;
  event.destination = destination;
  event.attempts = attempts;
  event.bandwidth_bps = bandwidth_bps;
  event.active_flows = flows_.size();
  if (config_.trace != nullptr) {
    config_.trace->record(event);
  }
  if (flight_ != nullptr) {
    // Raw into the ring; the recorder builds the text only for a snapshot.
    flight_->note(obs::FlowNote{.time = event.time,
                                .kind = to_string(kind),
                                .flow = event.flow,
                                .source = event.source,
                                .destination = event.destination,
                                .attempts = event.attempts,
                                .bandwidth_bps = event.bandwidth_bps,
                                .active_flows = event.active_flows});
  }
}

void Simulation::touch_links(const net::Path& path) {
  const double now = simulator_.now();
  for (const net::LinkId id : path.links) {
    const double utilization = ledger_.utilization(id);
    link_utilization_[id].update(now, utilization);
    if (timeline_ != nullptr) {
      // Feed the per-link high-water mark so a peak between two samples
      // survives into the window's row even after the flow departs.
      timeline_->note(link_hwm_columns_[id], utilization);
    }
    if (governor_ != nullptr) {
      governor_->note_utilization(utilization);
    }
  }
}

void Simulation::wire_timeline() {
  obs::Timeline& tl = *timeline_;
  tl.add_gauge("active_flows", [this] { return static_cast<double>(flows_.size()); });
  tl.add_gauge("reserved_total_bps", [this] { return ledger_.total_reserved(); });
  // Rate columns cover every group; the per-member columns below describe
  // the primary group.
  const auto add_total = [this, &tl](const char* name, auto tally) {
    tl.add_counter(name, [this, tally] { return static_cast<double>(lifetime_total(tally)); });
  };
  add_total("offered_per_s", &MetricsCollector::lifetime_offered);
  add_total("admitted_per_s", &MetricsCollector::lifetime_admitted);
  add_total("rejected_per_s", &MetricsCollector::lifetime_rejected);
  add_total("attempts_per_s", &MetricsCollector::lifetime_attempts);
  tl.add_counter("messages_per_s", [this] { return static_cast<double>(counter_.total()); });
  tl.add_counter("retransmits_per_s", [this] {
    return resilient_ != nullptr ? static_cast<double>(resilient_->stats().retransmits) : 0.0;
  });
  add_total("teardowns_per_s", [](const MetricsCollector& m) {
    return m.lifetime_teardowns(TeardownCause::kExplicit);
  });
  add_total("drops_fault_per_s", [](const MetricsCollector& m) {
    return m.lifetime_teardowns(TeardownCause::kLinkFault);
  });
  add_total("drops_churn_per_s", [](const MetricsCollector& m) {
    return m.lifetime_teardowns(TeardownCause::kChurn);
  });
  add_total("failover_attempts_per_s", &MetricsCollector::lifetime_failover_attempts);
  add_total("failover_admitted_per_s", &MetricsCollector::lifetime_failover_admitted);
  if (governor_ != nullptr) {
    tl.add_gauge("governor_effective_r", [this] {
      return static_cast<double>(governor_->effective_max_tries());
    });
    tl.add_gauge("governor_open_breakers",
                 [this] { return static_cast<double>(governor_->open_breakers()); });
    add_total("shed_per_s", &MetricsCollector::lifetime_shed);
  }
  if (config_.kernel_stats != nullptr) {
    // Kernel telemetry columns ride only when the sink is attached, keeping
    // plain runs' timeline artifacts byte-identical (DESIGN.md §15).
    tl.add_gauge("kernel_pending",
                 [this] { return static_cast<double>(simulator_.pending_events()); });
    tl.add_counter("kernel_events_per_s", [this] {
      return static_cast<double>(simulator_.dispatched_events());
    });
    tl.add_counter("kernel_tombstones_per_s", [this] {
      return static_cast<double>(simulator_.tombstones_popped());
    });
  }
  if (!config_.node_faults.empty() || config_.reconvergence_delay_s.has_value() ||
      config_.path_repair) {
    // Failure-domain columns appear only when the plane is engaged, keeping
    // unattached timelines byte-identical (same contract as the governor's).
    tl.add_gauge("routes_stale", [this] { return routes_stale_ ? 1.0 : 0.0; });
    tl.add_gauge("nodes_down", [this] {
      double down = 0.0;
      for (const std::uint32_t hold : node_hold_) {
        down += hold > 0 ? 1.0 : 0.0;
      }
      return down;
    });
    add_total("repairs_per_s", &MetricsCollector::lifetime_repaired);
  }
  const core::AnycastGroup& group = primary().group;
  for (std::size_t index = 0; index < group.size(); ++index) {
    const std::string member = topology_->router_name(group.member(index));
    tl.add_gauge("member_up:" + member,
                 [&group, index] { return group.is_up(index) ? 1.0 : 0.0; });
    if (policy_ == nullptr) {
      // Paper-facing view of eqs. (2), (4)-(12): each AC-router keeps its own
      // weight vector, so the timeline records the mean weight of this member
      // across every primary-group controller instantiated so far.
      tl.add_gauge("weight:" + member, [this, index] {
        double sum = 0.0;
        std::size_t sources = 0;
        for (const auto& controller : primary().controllers) {
          if (controller == nullptr) {
            continue;
          }
          controller->selector().fill_weights(weight_scratch_);
          if (index < weight_scratch_.size()) {
            sum += weight_scratch_[index];
            ++sources;
          }
        }
        return sources == 0 ? 0.0 : sum / static_cast<double>(sources);
      });
    }
  }
  link_hwm_columns_.assign(topology_->link_count(), 0);
  for (net::LinkId id = 0; id < topology_->link_count(); ++id) {
    const net::Arc& arc = topology_->link(id);
    std::string label = topology_->router_name(arc.from);
    label += "->";
    label += topology_->router_name(arc.to);
    tl.add_gauge("util:" + label, [this, id] { return ledger_.utilization(id); });
    link_hwm_columns_[id] =
        tl.add_watermark("util_hwm:" + label, [this, id] { return ledger_.utilization(id); });
  }
}

bool Simulation::ops_active() const {
  return config_.ops_server != nullptr || config_.ops_mailbox != nullptr ||
         !config_.ops_replay.empty();
}

void Simulation::schedule_ops_poll() {
  simulator_.schedule_in(config_.ops_interval_s, cat_ops_poll_, [this] { ops_poll(); });
}

void Simulation::ops_poll() {
  const double now = simulator_.now();
  // Replay first, then the live mailbox — the two are mutually exclusive in
  // one run, so the ordering only fixes which branch a given run takes.
  while (ops_replay_next_ < config_.ops_replay.size() &&
         config_.ops_replay[ops_replay_next_].apply_at <= now) {
    apply_ops_directive(config_.ops_replay[ops_replay_next_].directive);
    ++ops_replay_next_;
  }
  if (config_.ops_mailbox != nullptr) {
    for (const control::ControlDirective& directive : config_.ops_mailbox->drain()) {
      apply_ops_directive(directive);
    }
  }
  publish_ops();
  if (!draining_) {
    schedule_ops_poll();
  }
}

void Simulation::apply_ops_directive(const control::ControlDirective& directive) {
  // The constructor guarantees a governor whenever directives can arrive.
  const double applied = governor_->apply_directive(directive);
  ++ops_directives_applied_;
  if (config_.ops_log != nullptr) {
    // Stamped with the DES time of *application* — the wall-clock moment the
    // operator posted it is deliberately erased, which is what makes the log
    // replayable byte-identically (DESIGN.md §13).
    config_.ops_log->record(simulator_.now(), directive, applied);
  }
}

void Simulation::publish_ops() {
  if (config_.ops_server == nullptr) {
    return;  // replay or log-only run: apply and log, nothing to serve
  }
  const double now = simulator_.now();
  obs::Labels labels{{"system", label_}};
  labels.insert(labels.end(), config_.ops_labels.begin(), config_.ops_labels.end());

  // A fresh registry per publish: gauges are point-in-time reads and the
  // rendered text is swapped into the server whole, so a scrape never sees
  // a half-updated document.
  obs::MetricsRegistry registry;
  registry.gauge("anyqos_sim_time_seconds", "DES clock at publish", labels).set(now);
  registry.gauge("anyqos_sim_draining", "1 once the post-measurement drain began", labels)
      .set(draining_ ? 1.0 : 0.0);
  registry
      .counter("anyqos_events_dispatched_total", "DES events dispatched so far", labels)
      .increment(simulator_.dispatched_events());
  registry.gauge("anyqos_active_flows", "admitted, undeparted flows", labels)
      .set(static_cast<double>(flows_.size()));
  registry
      .gauge("anyqos_reserved_bandwidth_bps", "anycast bandwidth reserved across all links",
             labels)
      .set(ledger_.total_reserved());
  const auto outcome_counter = [&](const char* outcome, std::uint64_t value) {
    obs::Labels with_outcome = labels;
    with_outcome.push_back({"outcome", outcome});
    registry
        .counter("anyqos_requests_observed_total",
                 "requests by outcome, lifetime including warm-up (live view)",
                 std::move(with_outcome))
        .increment(value);
  };
  outcome_counter("offered", lifetime_total(&MetricsCollector::lifetime_offered));
  outcome_counter("admitted", lifetime_total(&MetricsCollector::lifetime_admitted));
  outcome_counter("rejected", lifetime_total(&MetricsCollector::lifetime_rejected));
  outcome_counter("shed", lifetime_total(&MetricsCollector::lifetime_shed));
  using signaling::MessageKind;
  for (const MessageKind kind :
       {MessageKind::kPath, MessageKind::kResv, MessageKind::kPathErr, MessageKind::kTear,
        MessageKind::kProbe, MessageKind::kProbeReply}) {
    obs::Labels with_kind = labels;
    with_kind.push_back({"kind", signaling::to_string(kind)});
    registry
        .counter("anyqos_signaling_observed_total",
                 "signaling link traversals by kind (resets at measurement start)",
                 std::move(with_kind))
        .increment(counter_.by_kind(kind));
  }
  if (governor_ != nullptr) {
    registry
        .gauge("anyqos_governor_effective_retries", "adaptive retrial bound in force", labels)
        .set(static_cast<double>(governor_->effective_max_tries()));
    registry.gauge("anyqos_governor_retry_ceiling", "operator/static retry ceiling", labels)
        .set(static_cast<double>(governor_->max_tries_ceiling()));
    registry.gauge("anyqos_governor_retry_floor", "AIMD floor", labels)
        .set(static_cast<double>(governor_->min_tries_floor()));
    registry.gauge("anyqos_governor_open_breakers", "members currently masked out", labels)
        .set(static_cast<double>(governor_->open_breakers()));
    if (governor_->shedding()) {
      registry
          .gauge("anyqos_governor_shed_tokens", "signaling-budget tokens left", labels)
          .set(governor_->shed_tokens(now));
    }
    registry.counter("anyqos_governor_windows_total", "feedback windows evaluated", labels)
        .increment(governor_->stats().windows);
    registry
        .counter("anyqos_governor_breaker_trips_total", "breaker transitions into Open",
                 labels)
        .increment(governor_->stats().breaker_trips);
    registry
        .counter("anyqos_ops_directives_applied_total",
                 "runtime control directives applied", labels)
        .increment(ops_directives_applied_);
  }
  const core::AnycastGroup& group = primary().group;
  for (std::size_t index = 0; index < group.size(); ++index) {
    obs::Labels with_member = labels;
    with_member.push_back({"member", topology_->router_name(group.member(index))});
    registry.gauge("anyqos_member_up", "1 while the member is in service", with_member)
        .set(group.is_up(index) ? 1.0 : 0.0);
  }
  for (net::LinkId id = 0; id < topology_->link_count(); ++id) {
    const net::Arc& arc = topology_->link(id);
    std::string link_name = topology_->router_name(arc.from);
    link_name += "->";
    link_name += topology_->router_name(arc.to);
    obs::Labels with_link = labels;
    with_link.push_back({"link", std::move(link_name)});
    registry
        .gauge("anyqos_link_utilization", "anycast-share utilization at publish",
               std::move(with_link))
        .set(ledger_.utilization(id));
  }
  std::ostringstream prometheus;
  registry.write_prometheus(prometheus);
  config_.ops_server->publish("/metrics", "text/plain; version=0.0.4; charset=utf-8",
                              prometheus.str());

  std::ostringstream status;
  status << "{\"sim_time_s\":" << util::format_fixed(now, 6)
         << ",\"draining\":" << (draining_ ? "true" : "false")
         << ",\"active_flows\":" << flows_.size()
         << ",\"directives_applied\":" << ops_directives_applied_ << ",\"governor\":";
  if (governor_ != nullptr) {
    status << "{\"effective_max_tries\":" << governor_->effective_max_tries()
           << ",\"retry_ceiling\":" << governor_->max_tries_ceiling()
           << ",\"retry_floor\":" << governor_->min_tries_floor()
           << ",\"open_breakers\":" << governor_->open_breakers()
           << ",\"windows\":" << governor_->stats().windows
           << ",\"tighten_steps\":" << governor_->stats().tighten_steps
           << ",\"relax_steps\":" << governor_->stats().relax_steps
           << ",\"shed\":" << governor_->stats().shed
           << ",\"breaker_trips\":" << governor_->stats().breaker_trips
           << ",\"shed_budget_msgs_per_s\":"
           << util::format_fixed(governor_->options().shed_budget_msgs_per_s, 6)
           << ",\"breaker_threshold\":" << governor_->options().breaker.failure_threshold
           << ",\"breaker_cooldown_s\":"
           << util::format_fixed(governor_->options().breaker.cooldown_s, 6)
           << ",\"shed_tokens\":";
    if (governor_->shedding()) {
      status << util::format_fixed(governor_->shed_tokens(now), 6);
    } else {
      status << "null";
    }
    status << '}';
  } else {
    status << "null";
  }
  status << "}\n";
  config_.ops_server->publish("/status", "application/json", status.str());
  config_.ops_server->publish_health(now, simulator_.dispatched_events(), draining_);
}

void Simulation::schedule_next_arrival(std::uint32_t index) {
  simulator_.schedule_in(groups_[index].arrivals.next_interarrival(), cat_arrival_,
                         [this, index] { handle_arrival(index); });
}

void Simulation::handle_arrival(std::uint32_t index) {
  if (draining_) {
    return;  // quiescence drain: the offered-load process has stopped
  }
  schedule_next_arrival(index);
  GroupState& state = groups_[index];

  core::FlowRequest request;
  request.source = state.arrivals.draw_source();
  request.bandwidth_bps = state.arrivals.model().flow_bandwidth_bps;
  request.request_id = ++next_request_id_;

  if (governor_ != nullptr && !governor_->admit_request(simulator_.now())) {
    // Signaling budget exhausted: fast-reject with zero messages — the
    // request never reaches the DAC loop, so it is counted as shed, not as
    // offered load (the AC-router answered from local state alone).
    state.metrics.record_shed();
    emit_trace(TraceEventKind::kShed, request.request_id, request.source, net::kInvalidNode,
               0, request.bandwidth_bps);
    if (config_.tracer != nullptr && config_.tracer->active()) {
      config_.tracer->begin_request(request.request_id, request.source, request.bandwidth_bps,
                                    "shed", 0, state.group.size());
      config_.tracer->end_request(false, std::nullopt, 0);
    }
    return;
  }

  core::AdmissionDecision decision;
  const std::uint64_t path_before =
      governor_ != nullptr ? counter_.by_kind(signaling::MessageKind::kPath) : 0;
  if (policy_ != nullptr) {
    decision = policy_->admit(simulator_.now(), request, selection_rng_);
    if (state.metrics.measuring()) {
      decision_delay_.add(decision.decision_delay_s);
    }
  } else {
    decision = controller_for(state, request.source).admit(request, selection_rng_);
  }
  if (governor_ != nullptr) {
    governor_->on_decision(simulator_.now(), decision.admitted,
                           counter_.by_kind(signaling::MessageKind::kPath) - path_before);
  }
  state.metrics.record_decision(decision.admitted, decision.attempts, decision.messages,
                                decision.destination_index.value_or(0));
  // Drain control-plane waiting unconditionally so warm-up waits never leak
  // into the first measured request's delay.
  const double control_wait = rsvp_->consume_pending_wait();
  if (state.metrics.measuring() && control_wait > 0.0) {
    // The setup delay is whatever the resilient control plane spent waiting
    // on this request's walks (injected hop delay, retransmission timeouts,
    // backoff); the plain protocol signals instantly.
    setup_delay_.add(control_wait);
    setup_delay_p95_.add(control_wait);
  }
  if (!decision.admitted) {
    emit_trace(TraceEventKind::kRejected, request.request_id, request.source,
               net::kInvalidNode, decision.attempts, request.bandwidth_bps);
    return;
  }

  start_flow(index, request, decision);
  record_active_flows();
  emit_trace(TraceEventKind::kAdmitted, request.request_id, request.source,
             state.group.member(*decision.destination_index), decision.attempts,
             decision.reserved_bps);
}

void Simulation::start_flow(std::uint32_t group, const core::FlowRequest& request,
                            const core::AdmissionDecision& decision) {
  touch_links(*decision.route);
  ActiveFlow flow;
  flow.request_id = request.request_id;
  flow.source = request.source;
  flow.group = group;
  flow.destination_index = *decision.destination_index;
  flow.route = decision.route;
  flow.bandwidth_bps = decision.reserved_bps;
  flow.admitted_at = simulator_.now();
  const FlowId id = flows_.insert(std::move(flow));
  simulator_.schedule_in(groups_[group].arrivals.draw_holding(), cat_departure_,
                         [this, id] { handle_departure(id); });
}

void Simulation::handle_departure(FlowId id) {
  if (!flows_.contains(id)) {
    if (repair_ != nullptr && repair_->contains(id)) {
      // The flow's holding time elapsed while it waited for repair: it
      // departs from the queue, releasing whatever remnant it still held.
      // Path repair runs single-group, so the flow is the primary's.
      const signaling::BrokenFlow flow =
          repair_->resolve(id, signaling::PathRepair::Resolution::kExpired);
      primary().metrics.record_teardown(TeardownCause::kExplicit);
      if (!flow.remnant.links.empty()) {
        touch_links(flow.remnant);
      }
      record_active_flows();
      emit_trace(TraceEventKind::kDeparted, flow.request_id, flow.source,
                 primary().group.member(flow.destination_index), 0, flow.bandwidth_bps);
    }
    return;  // the flow was torn down earlier by a link failure
  }
  const ActiveFlow flow = flows_.take(id);
  GroupState& state = groups_[flow.group];
  if (policy_ != nullptr) {
    policy_->release(*flow.route, flow.bandwidth_bps);
  } else {
    // Under the resilient protocol the TEAR may be lost, deferring the
    // release to soft-state orphan reclamation.
    rsvp_->teardown(*flow.route, flow.bandwidth_bps);
  }
  state.metrics.record_teardown(TeardownCause::kExplicit);
  touch_links(*flow.route);
  record_active_flows();
  emit_trace(TraceEventKind::kDeparted, flow.request_id, flow.source,
             state.group.member(flow.destination_index), 0, flow.bandwidth_bps);
}

void Simulation::drop_flows_on_link(net::LinkId link) {
  for (const FlowId id : flows_.flows_using_link(link)) {
    ActiveFlow flow = flows_.take(id);
    if (repair_ != nullptr && node_hold_[flow.source] == 0) {
      // Path repair: instead of dropping, park the flow in the repair queue
      // holding its surviving links (make-before-break capital). The failing
      // link itself is narrowed out so the ledger can take it out of service.
      // Flows sourced at a crashed router fall through to the plain drop —
      // the AC router that would re-signal them is gone.
      signaling::BrokenFlow broken;
      broken.flow_id = flow.id;
      broken.request_id = flow.request_id;
      broken.source = flow.source;
      broken.destination_index = flow.destination_index;
      broken.bandwidth_bps = flow.bandwidth_bps;
      broken.admitted_at = flow.admitted_at;
      broken.broken_at = simulator_.now();
      for (const net::LinkId survivor : flow.route->links) {
        if (survivor != link) {
          broken.remnant.links.push_back(survivor);
        }
      }
      repair_->add(std::move(broken), *flow.route);
      touch_links(*flow.route);
      continue;  // outcome (kRepaired / kRepairFailed / kDeparted) traces later
    }
    if (policy_ != nullptr) {
      // Policy runs signal over the plain walk, whose release always commits.
      policy_->release(*flow.route, flow.bandwidth_bps);
    } else {
      // The link is about to be taken out of service and the ledger requires
      // it idle, so the release must commit now — a lossy TEAR would leave
      // bandwidth reserved on a failed link.
      rsvp_->force_teardown(*flow.route, flow.bandwidth_bps);
    }
    touch_links(*flow.route);
    GroupState& state = groups_[flow.group];
    state.metrics.record_teardown(TeardownCause::kLinkFault);
    emit_trace(TraceEventKind::kDropped, flow.request_id, flow.source,
               state.group.member(flow.destination_index), 0, flow.bandwidth_bps);
  }
  record_active_flows();
}

bool Simulation::take_duplex_down(net::LinkId forward) {
  const std::size_t duplex = forward / 2;
  if (++duplex_hold_[duplex] > 1 && !config_.defeat_duplex_idempotency) {
    return false;  // already out of service under an overlapping outage
  }
  duplex_up_[duplex] = 0;
  const net::LinkId backward = topology_->reverse_link(forward);
  drop_flows_on_link(forward);
  drop_flows_on_link(backward);
  // Orphaned (soft-state) reservations crossing the link vanish with it, and
  // queued broken flows shed the dying link from their held remnants — both
  // before fail_link, which requires the directed links idle.
  rsvp_->on_link_failing(forward);
  rsvp_->on_link_failing(backward);
  if (repair_ != nullptr) {
    repair_->on_link_failing(forward);
    repair_->on_link_failing(backward);
  }
  ledger_.fail_link(forward);
  ledger_.fail_link(backward);
  const double now = simulator_.now();
  link_utilization_[forward].update(now, 1.0);
  link_utilization_[backward].update(now, 1.0);
  if (timeline_ != nullptr) {
    // A failed link reads utilization 1.0; note it so the high-water column
    // shows the outage even when the repair lands within the same window.
    timeline_->note(link_hwm_columns_[forward], 1.0);
    timeline_->note(link_hwm_columns_[backward], 1.0);
  }
  note_topology_change();
  // Trace the transition here so link kills from a node crash are visible
  // exactly like scheduled link faults.
  const net::Arc& arc = topology_->link(forward);
  emit_trace(TraceEventKind::kLinkDown, 0, arc.from, arc.to, 0, 0.0);
  return true;
}

bool Simulation::bring_duplex_up(net::LinkId forward) {
  const std::size_t duplex = forward / 2;
  util::ensure(duplex_hold_[duplex] > 0, "duplex repair without a matching outage");
  if (--duplex_hold_[duplex] > 0) {
    return false;  // another overlapping outage still holds the link down
  }
  duplex_up_[duplex] = 1;
  const net::LinkId backward = topology_->reverse_link(forward);
  ledger_.restore_link(forward);
  ledger_.restore_link(backward);
  const double now = simulator_.now();
  link_utilization_[forward].update(now, 0.0);
  link_utilization_[backward].update(now, 0.0);
  note_topology_change();
  const net::Arc& arc = topology_->link(forward);
  emit_trace(TraceEventKind::kLinkUp, 0, arc.from, arc.to, 0, 0.0);
  return true;
}

void Simulation::apply_fault(const LinkFault& fault) {
  const net::LinkId forward = *topology_->find_link(fault.a, fault.b);
  if (!take_duplex_down(forward)) {
    return;  // overlapping schedules (or the enclosing node is down)
  }
  if (flight_ != nullptr) {
    // Dump after the drops so the snapshot carries the victims' final events.
    std::string reason = "link_fault ";
    reason += std::to_string(fault.a);
    reason += "->";
    reason += std::to_string(fault.b);
    flight_->trigger(simulator_.now(), reason);
  }
}

void Simulation::repair_fault(const LinkFault& fault) {
  const net::LinkId forward = *topology_->find_link(fault.a, fault.b);
  (void)bring_duplex_up(forward);  // no-op while an overlapping outage holds it
}

void Simulation::apply_node_down(const NodeFault& fault) {
  if (++node_hold_[fault.node] > 1) {
    return;  // overlapping outages: the router is already down
  }
  ++node_outages_;
  emit_trace(TraceEventKind::kNodeDown, 0, fault.node, net::kInvalidNode, 0, 0.0);
  // Co-located group members die with the router. Their flows' endpoints are
  // gone even where the route survives, so they tear down as churn does —
  // but failover is deferred until after the incident links fail, so a
  // re-admission walks the (stale) routes against the true post-crash
  // network and fails realistically with PATH_ERR where they cross it.
  // Node faults run single-group: every member and flow is the primary's.
  const core::AnycastGroup& group = primary().group;
  std::vector<ActiveFlow> displaced;
  for (std::size_t member = 0; member < group.size(); ++member) {
    if (group.member(member) == fault.node && group.is_up(member)) {
      take_member_down(member, &displaced);
    }
  }
  // Every incident duplex link fails atomically with the crash; transit
  // flows crossing the router are dropped (or queued for repair) here.
  for (net::LinkId id = 0; id < topology_->link_count(); id += 2) {
    const net::Arc& arc = topology_->link(id);
    if (arc.from == fault.node || arc.to == fault.node) {
      take_duplex_down(id);
    }
  }
  for (const ActiveFlow& flow : displaced) {
    if (node_hold_[flow.source] > 0) {
      continue;  // the AC-router that would re-signal crashed too
    }
    attempt_failover(flow);
  }
  record_active_flows();
  if (flight_ != nullptr) {
    // After the teardown/failover cascade: the snapshot carries every
    // victim's final events and any re-admission spans.
    std::string reason = "node_crash node=";
    reason += std::to_string(fault.node);
    flight_->trigger(simulator_.now(), reason);
  }
}

void Simulation::apply_node_up(const NodeFault& fault) {
  util::ensure(node_hold_[fault.node] > 0, "node recovery without a matching crash");
  if (--node_hold_[fault.node] > 0) {
    return;  // another overlapping outage still holds the router down
  }
  for (net::LinkId id = 0; id < topology_->link_count(); id += 2) {
    const net::Arc& arc = topology_->link(id);
    if (arc.from == fault.node || arc.to == fault.node) {
      bring_duplex_up(id);
    }
  }
  core::AnycastGroup& group = primary().group;
  for (std::size_t member = 0; member < group.size(); ++member) {
    if (group.member(member) == fault.node && !group.is_up(member)) {
      group.set_member_up(member, true);
      emit_trace(TraceEventKind::kMemberUp, 0, fault.node, net::kInvalidNode, 0, 0.0);
    }
  }
  emit_trace(TraceEventKind::kNodeUp, 0, fault.node, net::kInvalidNode, 0, 0.0);
}

void Simulation::note_topology_change() {
  if (!config_.reconvergence_delay_s.has_value()) {
    return;  // the paper's static-route model: tables never react
  }
  routes_stale_ = true;
  const std::uint64_t generation = ++route_generation_;
  // Restart semantics: every change re-arms the full convergence delay, and
  // a superseded timer no-ops — a burst of changes (a node crash failing
  // several links at once) converges once, after its last change.
  simulator_.schedule_in(*config_.reconvergence_delay_s, cat_reconverge_, [this, generation] {
    if (generation != route_generation_) {
      return;
    }
    reconverge();
  });
}

void Simulation::reconverge() {
  primary().routes.recompute(*topology_, duplex_up_);  // reconvergence runs single-group
  routes_stale_ = false;
  ++reconvergences_;
  emit_trace(TraceEventKind::kReconverged, 0, net::kInvalidNode, net::kInvalidNode, 0, 0.0);
  if (repair_ != nullptr) {
    run_repair_pass();
  }
}

void Simulation::run_repair_pass() {
  GroupState& state = primary();  // path repair runs single-group
  for (const FlowId id : repair_->pending_ids()) {
    const signaling::BrokenFlow& broken = repair_->broken(id);
    const std::size_t member = broken.destination_index;
    // Make-before-break: reserve the fresh route while the remnant is still
    // held, then resolve() releases the remnant. When nothing survived the
    // outage this degrades to break-before-make (tallied by the service).
    bool admitted = false;
    const net::Path* route = nullptr;
    const std::uint64_t messages_before = counter_.total();
    if (config_.tracer != nullptr && config_.tracer->active()) {
      config_.tracer->begin_request(broken.request_id, broken.source, broken.bandwidth_bps,
                                    "repair", 0, state.group.size());
    }
    if (state.group.is_up(member) && state.routes.has_route(broken.source, member)) {
      route = &state.routes.route(broken.source, member);
      admitted = rsvp_->reserve(*route, broken.bandwidth_bps).admitted;
      (void)rsvp_->consume_pending_wait();  // repair waits stay out of setup delay
      if (!admitted && !broken.remnant.links.empty()) {
        // Break-before-make fallback: the remnant's own bandwidth blocks the
        // fresh reserve on links the old and new routes share, so surrender
        // it and retry once against the freed capacity.
        const net::Path surrendered = broken.remnant;
        repair_->surrender_remnant(id);
        touch_links(surrendered);
        admitted = rsvp_->reserve(*route, broken.bandwidth_bps).admitted;
        (void)rsvp_->consume_pending_wait();
      }
    }
    if (config_.tracer != nullptr && config_.tracer->active()) {
      config_.tracer->end_request(admitted,
                                  admitted ? std::optional<std::size_t>(member) : std::nullopt,
                                  counter_.total() - messages_before);
    }
    if (admitted) {
      const signaling::BrokenFlow done =
          repair_->resolve(id, signaling::PathRepair::Resolution::kRepaired);
      ActiveFlow flow;
      flow.id = id;
      flow.request_id = done.request_id;
      flow.source = done.source;
      flow.destination_index = done.destination_index;
      flow.route = route;
      flow.bandwidth_bps = done.bandwidth_bps;
      flow.admitted_at = done.admitted_at;
      flows_.restore(std::move(flow));  // keeps the armed departure timer valid
      touch_links(*route);
      state.metrics.record_repair(true);
      emit_trace(TraceEventKind::kRepaired, done.request_id, done.source,
                 state.group.member(member), 0, done.bandwidth_bps);
    } else {
      const signaling::BrokenFlow done =
          repair_->resolve(id, signaling::PathRepair::Resolution::kUnrepairable);
      if (!done.remnant.links.empty()) {
        touch_links(done.remnant);
      }
      state.metrics.record_teardown(TeardownCause::kLinkFault);
      state.metrics.record_repair(false);
      emit_trace(TraceEventKind::kRepairFailed, done.request_id, done.source,
                 state.group.member(member), 0, done.bandwidth_bps);
    }
  }
  record_active_flows();
}

void Simulation::take_member_down(std::size_t member, std::vector<ActiveFlow>* deferred) {
  GroupState& state = primary();  // churn and node faults run single-group
  // Exclude the member from selection *before* tearing flows down so any
  // failover re-admission can only land on the surviving members.
  state.group.set_member_up(member, false);
  if (governor_ != nullptr) {
    // Trip the breaker with the outage: when the member recovers it stays
    // masked until the cooldown's half-open probe proves it healthy.
    governor_->on_member_churn(member);
  }
  emit_trace(TraceEventKind::kMemberDown, 0, state.group.member(member), net::kInvalidNode, 0,
             0.0);
  for (const FlowId id : flows_.flows_to_member(member)) {
    ActiveFlow flow = flows_.take(id);
    // The route's links are all still in service — only the endpoint died —
    // so the normal (possibly lossy) TEAR path applies; a lost TEAR becomes
    // an orphan that soft-state expiry reclaims.
    rsvp_->teardown(*flow.route, flow.bandwidth_bps);
    touch_links(*flow.route);
    state.metrics.record_teardown(TeardownCause::kChurn);
    emit_trace(TraceEventKind::kDropped, flow.request_id, flow.source,
               state.group.member(flow.destination_index), 0, flow.bandwidth_bps);
    if (!config_.failover_readmit || draining_) {
      continue;
    }
    if (deferred != nullptr) {
      deferred->push_back(std::move(flow));
    } else {
      attempt_failover(flow);
    }
  }
}

void Simulation::apply_member_down(std::size_t member) {
  const core::AnycastGroup& group = primary().group;  // member churn runs single-group
  if (!group.is_up(member)) {
    return;  // overlapping schedules: already down
  }
  take_member_down(member, nullptr);
  record_active_flows();
  if (flight_ != nullptr) {
    // After the teardown/failover loop: the snapshot includes every displaced
    // flow's drop (and any failover re-admission spans) as its final entries.
    std::string reason = "member_churn member=";
    reason += std::to_string(member);
    reason += " node=";
    reason += std::to_string(group.member(member));
    flight_->trigger(simulator_.now(), reason);
  }
}

void Simulation::apply_member_up(std::size_t member) {
  core::AnycastGroup& group = primary().group;
  if (group.is_up(member)) {
    return;
  }
  if (node_hold_[group.member(member)] > 0) {
    return;  // the member's router is crashed; node recovery will revive it
  }
  group.set_member_up(member, true);
  emit_trace(TraceEventKind::kMemberUp, 0, group.member(member), net::kInvalidNode, 0, 0.0);
}

void Simulation::attempt_failover(const ActiveFlow& displaced) {
  // Re-offer the displaced flow through the normal admission procedure as a
  // fresh request: new id (it gets its own decision span), and — holding
  // times being exponential, hence memoryless — a fresh holding draw.
  GroupState& state = groups_[displaced.group];
  core::FlowRequest request;
  request.source = displaced.source;
  request.bandwidth_bps = displaced.bandwidth_bps;
  request.request_id = ++next_request_id_;
  // Failover is exempt from shedding (dropping an already-admitted user is
  // worse than spending signaling) but its walk still pays the budget and
  // its outcome still feeds the feedback window — it is real load.
  const std::uint64_t path_before =
      governor_ != nullptr ? counter_.by_kind(signaling::MessageKind::kPath) : 0;
  const core::AdmissionDecision decision =
      controller_for(state, request.source).admit(request, selection_rng_);
  if (governor_ != nullptr) {
    governor_->on_decision(simulator_.now(), decision.admitted,
                           counter_.by_kind(signaling::MessageKind::kPath) - path_before);
  }
  state.metrics.record_failover(decision.admitted);
  // Failover is not offered load: its control-plane waiting stays out of the
  // per-request setup-delay statistics, but must still be drained.
  (void)rsvp_->consume_pending_wait();
  if (!decision.admitted) {
    return;
  }
  start_flow(displaced.group, request, decision);
  emit_trace(TraceEventKind::kFailover, request.request_id, request.source,
             state.group.member(*decision.destination_index), decision.attempts,
             decision.reserved_bps);
}

std::string Simulation::system_label(const SimulationConfig& config) {
  util::require(!config.policy, "a policy run is labelled by its policy");
  if (config.use_gdi) {
    return "GDI";
  }
  if (config.algorithm == core::SelectionAlgorithm::kShortestPath && config.max_tries == 1) {
    return "SP";
  }
  std::string label = "<";
  label += core::to_string(config.algorithm);
  label += ',';
  label += std::to_string(config.max_tries);
  label += '>';
  return label;
}

SimulationResult Simulation::run() {
  util::require(!ran_, "a Simulation instance runs once; construct a fresh one");
  ran_ = true;

  if (config_.profiler != nullptr) {
    config_.profiler->attach(simulator_);
  }
  if (timeline_ != nullptr) {
    // Register columns before the first event so the artifact's schema is
    // independent of what the run does, then install the sample event. The
    // rearm guard mirrors the auditor's checkpoint: a draining run must be
    // able to empty its calendar.
    wire_timeline();
    timeline_->attach(simulator_, [this] { return draining_; });
  }
  if (governor_ != nullptr) {
    // The window timer stops rearming at drain; breaker cooldowns are
    // one-shot and still fire, so no breaker is left open at quiescence.
    governor_->attach(simulator_, [this] { return draining_; });
  }
  if (ops_active()) {
    // Scheduled right after the governor's window timer so that when the
    // poll interval equals the window, the shared-timestamp tie breaks the
    // same way in live and replay runs: window step first, directives after.
    schedule_ops_poll();
    // Publish once before the first event so early scrapes see documents.
    publish_ops();
  }
  // Seed the event calendar.
  for (std::uint32_t index = 0; index < groups_.size(); ++index) {
    schedule_next_arrival(index);
  }
  for (const LinkFault& fault : config_.faults) {
    simulator_.schedule_at(fault.fail_at, cat_link_fault_,
                           [this, fault] { apply_fault(fault); });
    simulator_.schedule_at(fault.repair_at, cat_link_fault_,
                           [this, fault] { repair_fault(fault); });
  }
  for (const MemberChurnEvent& event : config_.churn) {
    simulator_.schedule_at(event.down_at, cat_churn_,
                           [this, event] { apply_member_down(event.member_index); });
    simulator_.schedule_at(event.up_at, cat_churn_,
                           [this, event] { apply_member_up(event.member_index); });
  }
  for (const NodeFault& fault : config_.node_faults) {
    simulator_.schedule_at(fault.fail_at, cat_node_fault_,
                           [this, fault] { apply_node_down(fault); });
    simulator_.schedule_at(fault.repair_at, cat_node_fault_,
                           [this, fault] { apply_node_up(fault); });
  }
  // Initialize utilization tracking at t = 0 so time averages cover the run.
  for (net::LinkId id = 0; id < topology_->link_count(); ++id) {
    link_utilization_[id].update(0.0, 0.0);
  }

  // Warm-up: run, then discard counters and restart integrals.
  {
    std::optional<obs::EngineProfiler::PhaseScope> timed;
    if (config_.profiler != nullptr) {
      timed.emplace(config_.profiler->phase("warmup"));
    }
    simulator_.run_until(config_.warmup_s);
  }
  counter_.reset();
  for (GroupState& state : groups_) {
    state.metrics.begin_measurement(simulator_.now());
  }
  if (timeline_ != nullptr) {
    // After counter_.reset(): counter columns re-baseline here so the reset
    // cannot read as a negative per-window message rate.
    timeline_->mark_measurement_start(simulator_.now());
  }
  record_active_flows();
  for (net::LinkId id = 0; id < topology_->link_count(); ++id) {
    link_utilization_[id].restart(simulator_.now());
    link_utilization_[id].update(simulator_.now(), ledger_.utilization(id));
  }

  const double end_time = config_.warmup_s + config_.measure_s;
  {
    std::optional<obs::EngineProfiler::PhaseScope> timed;
    if (config_.profiler != nullptr) {
      timed.emplace(config_.profiler->phase("measure"));
    }
    simulator_.run_until(end_time);
  }
  if (config_.drain_to_quiescence) {
    // Stop offering new flows and run the calendar dry: departures, orphan
    // reclaims, link repairs, and member recoveries all complete. A clean
    // run ends with zero reserved bandwidth everywhere.
    std::optional<obs::EngineProfiler::PhaseScope> timed;
    if (config_.profiler != nullptr) {
      timed.emplace(config_.profiler->phase("drain"));
    }
    draining_ = true;
    // Watchdog caps (0 = none) bound simulated time and/or dispatched events
    // so a drain that never quiesces (a bug, by definition, once arrivals
    // have stopped) surfaces as a diagnosable trip instead of a hung
    // process. Uncapped, this is run() itself: run_bounded(+inf, 0). A
    // capped drain that completes is byte-identical to an unbounded one
    // (run_bounded leaves the clock at the last event).
    const double cap_time = config_.drain_max_sim_s > 0.0
                                ? end_time + config_.drain_max_sim_s
                                : std::numeric_limits<double>::infinity();
    drain_watchdog_.drained_events = simulator_.run_bounded(cap_time, config_.drain_max_events);
    if (simulator_.pending_events() > 0) {
      drain_watchdog_.tripped = true;
      drain_watchdog_.reason = (config_.drain_max_events > 0 &&
                                drain_watchdog_.drained_events >= config_.drain_max_events)
                                   ? "event budget exhausted"
                                   : "sim-time cap reached";
      drain_watchdog_.pending_events = simulator_.pending_events();
      drain_watchdog_.active_flows = flows_.size();
      drain_watchdog_.sim_time_s = simulator_.now();
      if (flight_ != nullptr) {
        flight_->trigger(simulator_.now(), "drain_watchdog " + drain_watchdog_.reason);
      }
    }
  }
  // Drained runs extend past the nominal window; time averages must cover
  // the extension or the integrals would double-count the tail.
  const double horizon = std::max(end_time, simulator_.now());

  const MetricsCollector& metrics = primary().metrics;
  SimulationResult result;
  result.system_label = label_;
  result.admission_probability = metrics.admission_probability();
  result.admission_ci = metrics.admission_ci(0.95);
  result.average_attempts = metrics.average_attempts();
  result.attempts_histogram = metrics.attempts_histogram();
  result.average_messages = metrics.average_messages();
  result.offered = metrics.offered();
  result.admitted = metrics.admitted();
  result.dropped = metrics.dropped_flows();
  result.dropped_by_fault = metrics.teardowns(TeardownCause::kLinkFault);
  result.dropped_by_churn = metrics.teardowns(TeardownCause::kChurn);
  result.explicit_teardowns = metrics.teardowns(TeardownCause::kExplicit);
  result.failover_attempts = metrics.failover_attempts();
  result.failover_admitted = metrics.failover_admitted();
  result.shed = metrics.shed();
  result.repaired = metrics.repaired();
  result.unrepairable = metrics.unrepairable();
  result.reconvergences = reconvergences_;
  result.node_outages = node_outages_;
  if (resilient_ != nullptr) {
    result.resilience = resilient_->stats();
  }
  result.per_destination_admissions = metrics.per_destination_admissions();
  result.average_active_flows = metrics.average_active_flows(horizon);
  result.messages = counter_;
  result.average_decision_delay_s = decision_delay_.mean();
  result.average_setup_delay_s = setup_delay_.mean();
  result.p95_setup_delay_s = setup_delay_.count() > 0 ? setup_delay_p95_.value() : 0.0;

  stats::Accumulator utilization;
  double max_util = 0.0;
  for (net::LinkId id = 0; id < topology_->link_count(); ++id) {
    const double u = link_utilization_[id].mean(horizon);
    utilization.add(u);
    max_util = std::max(max_util, u);
  }
  result.mean_link_utilization = utilization.mean();
  result.max_link_utilization = max_util;
  for (const GroupState& state : groups_) {
    GroupResult row;
    row.address = state.group.address();
    row.offered = state.metrics.offered();
    row.admitted = state.metrics.admitted();
    row.admission_probability = state.metrics.admission_probability();
    row.average_attempts = state.metrics.average_attempts();
    result.groups.push_back(std::move(row));
  }
  return result;
}

}  // namespace anyqos::sim
