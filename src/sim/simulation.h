// Flow-level discrete-event simulation of a DAC system (paper Section 5).
//
// One Simulation instance evaluates one system <A, R> (or a baseline) on one
// topology under one traffic model: Poisson request arrivals run through the
// admission procedure; admitted flows hold bandwidth for an exponential
// lifetime and then release it. Warm-up is discarded before measuring.
//
// DAC is built in: one core::AdmissionController per source router, which
// the governor, churn, node-fault, reconvergence, repair and span planes
// attach to. Every other procedure runs through one core::AdmissionPolicy
// (SimulationConfig::policy or use_gdi).
//
// A run may carry several anycast groups (multi-service extension): the
// paper's one group is the run's "primary" group, and each extra group is
// its own Poisson stream with its own members and <A, R> tuple. Groups
// interact only through the shared link bandwidth of one ledger.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/control/directive.h"
#include "src/control/governor.h"
#include "src/core/admission.h"
#include "src/core/selector.h"
#include "src/des/simulator.h"
#include "src/net/bandwidth.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/kernel_stats.h"
#include "src/obs/ops_server.h"
#include "src/obs/profiler.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/timeline.h"
#include "src/net/routing.h"
#include "src/net/topologies.h"
#include "src/sim/churn.h"
#include "src/sim/flow_table.h"
#include "src/sim/metrics.h"
#include "src/sim/trace.h"
#include "src/sim/traffic.h"
#include "src/signaling/path_repair.h"
#include "src/signaling/probe.h"
#include "src/signaling/resilient.h"
#include "src/signaling/rsvp.h"
#include "src/stats/quantile.h"
#include "src/stats/time_weighted.h"

namespace anyqos::sim {

/// A scheduled duplex-link outage (fault-tolerance extension; see faults.h
/// for generators). Flows routed over the link when it fails are torn down.
struct LinkFault {
  net::NodeId a = net::kInvalidNode;  ///< duplex link endpoint
  net::NodeId b = net::kInvalidNode;  ///< duplex link endpoint
  double fail_at = 0.0;               ///< outage start (simulated seconds)
  double repair_at = 0.0;             ///< outage end; must exceed fail_at
};

/// A scheduled router crash/recovery (failure-domain plane; see faults.h for
/// generators). A down router takes every incident duplex link out
/// atomically and any co-located group members with it. Outages of the same
/// element may overlap (correlated regional outages + independent link
/// faults): links and nodes are hold-counted, so an element returns to
/// service only when every overlapping outage holding it down has ended.
struct NodeFault {
  net::NodeId node = net::kInvalidNode;  ///< the crashing router
  double fail_at = 0.0;                  ///< crash time (simulated seconds)
  double repair_at = 0.0;                ///< recovery; must exceed fail_at
};

/// One extra anycast group (SimulationConfig::extra_groups): a service with
/// its own address, members, Poisson arrival stream and <A, R> tuple that
/// shares the run's ledger, source set and mean holding time.
struct GroupSpec {
  std::string address;                           ///< display label
  std::vector<net::NodeId> members;              ///< G(A)
  double arrival_rate = 0.0;                     ///< requests/s
  net::Bandwidth flow_bandwidth_bps = 64'000.0;  ///< per-flow demand
  core::SelectionAlgorithm algorithm = core::SelectionAlgorithm::kEvenDistribution;
  std::size_t max_tries = 2;                     ///< R
  double alpha = 0.5;                            ///< WD/D+H history discount
};

/// What a SimulationConfig::policy factory may bind its policy to; the
/// Simulation owns all of it and keeps it alive as long as the policy.
struct PolicyEnvironment {
  const net::Topology& topology;
  net::BandwidthLedger& ledger;
  const core::AnycastGroup& group;
  const net::RouteTable& routes;  ///< the group's shortest-path routes
  signaling::ReservationProtocol& rsvp;
};

/// Builds the admission policy of a run (SimulationConfig::policy).
using PolicyFactory =
    std::function<std::unique_ptr<core::AdmissionPolicy>(const PolicyEnvironment&)>;

/// Full description of one simulation run. The workload and system fields
/// describe the run's primary group; `extra_groups` adds more.
struct SimulationConfig {
  // --- Workload ---
  TrafficModel traffic;                      ///< arrivals, holding, bandwidth, sources
  std::vector<net::NodeId> group_members;    ///< the anycast group G(A)
  double anycast_share = 0.2;                ///< link fraction usable by anycast
  /// Further anycast groups on the same ledger, source set and mean holding
  /// time. Each draws its arrivals, sources and holding times from its own
  /// named streams, so adding a group never shifts another group's arrival
  /// sequence. Planes that index the members of one group — GDI, an
  /// admission policy, member churn, the governor (and so ops steering),
  /// node faults, reconvergence and path repair — reject extra groups; the
  /// other planes cover every group.
  std::vector<GroupSpec> extra_groups;

  // --- System under test (the paper's <A, R> tuple, or a baseline) ---
  bool use_gdi = false;                      ///< run the GDI oracle instead of DAC
  /// Run this admission procedure instead of the built-in DAC controllers
  /// (e.g. sim::centralized_policy); the constructor calls it once. Like
  /// GDI, a policy runs without the DAC-only planes (resilience, churn,
  /// governor, node faults, reconvergence, spans) and without extra groups.
  /// Mutually exclusive with use_gdi.
  PolicyFactory policy;
  core::SelectionAlgorithm algorithm = core::SelectionAlgorithm::kEvenDistribution;
  std::size_t max_tries = 2;                 ///< R: destinations tried per request
  double alpha = 0.5;                        ///< WD/D+H history discount
  bool wdb_mask_infeasible = false;          ///< WD/D+B masking ablation

  // --- Run control ---
  double warmup_s = 2'000.0;                 ///< discarded transient
  double measure_s = 20'000.0;               ///< measurement window length
  std::uint64_t seed = 1;                    ///< master seed (common random numbers)
  std::vector<LinkFault> faults;             ///< optional outage schedule

  // --- Robustness extension (DAC runs only) ---
  /// When set, the run uses the ResilientReservationProtocol: control
  /// messages traverse a FaultPlane (loss / delay / outage kills) and the
  /// source recovers with timeouts, bounded retransmission with backoff, and
  /// soft-state orphan reclamation. Unset keeps the paper's fault-free walk.
  std::optional<signaling::ResilienceOptions> resilience;
  /// Member outages replayed during the run (see churn.h for generators).
  /// While a member is down it is excluded from selection and flows pinned
  /// to it are torn down.
  std::vector<MemberChurnEvent> churn;
  /// Re-admit flows displaced by member churn through the normal admission
  /// procedure (fresh request, remaining members only). Counted separately
  /// from offered traffic as failover attempts/admissions.
  bool failover_readmit = true;
  /// Router crash/recovery schedule (see faults.h for Poisson MTBF/MTTR and
  /// regional-outage generators). DAC runs only. A crash fails every
  /// incident link (hold-counted against overlapping link faults) and takes
  /// co-located group members down; member churn cannot revive a member
  /// whose router is crashed.
  std::vector<NodeFault> node_faults;
  /// Routing reconvergence delay, seconds (non-negative; see
  /// net/reconvergence.h). When set, every duplex up/down transition
  /// schedules a route-table recompute this long later (restart semantics: a
  /// burst converges once, after its last change). During the stale window
  /// admission walks the old routes and fails realistically with PATH_ERR;
  /// members the recompute leaves unreachable are masked from selection like
  /// down members. Unset keeps the paper's static routes forever — unchanged
  /// behaviour. DAC runs only.
  std::optional<double> reconvergence_delay_s;
  /// Re-signal flows whose route lost a link instead of dropping them: the
  /// broken flow holds its surviving links (narrowed reservation) until the
  /// next reconvergence, then re-reserves over the fresh route
  /// (make-before-break; break-before-make when nothing survived) or is
  /// dropped as unrepairable. Requires `reconvergence_delay_s`. DAC runs
  /// only.
  bool path_repair = false;
  /// After the measurement window, stop offering new flows and run the
  /// calendar dry (departures, orphan reclaims, repairs, recoveries). With
  /// this set a clean run ends with zero reserved bandwidth everywhere —
  /// the chaos harness's leak check.
  bool drain_to_quiescence = false;
  /// Drain watchdog (unattended chaos/fuzz hardening): caps on the
  /// drain_to_quiescence run-to-empty. `drain_max_events` bounds events
  /// dispatched during the drain; `drain_max_sim_s` bounds simulated time
  /// past the measurement window. 0 disables a cap (the drain runs
  /// unbounded, exactly as before). A drain that hits either cap with
  /// events still queued trips the watchdog: run() fires a flight-recorder
  /// dump ("drain_watchdog <reason>"), records a DrainWatchdogReport
  /// (drain_watchdog()), and returns normally — a tripped report is the
  /// harness's cue to fail the run with diagnostics instead of hanging a CI
  /// job. A capped drain that completes is byte-identical to an unbounded
  /// one.
  std::size_t drain_max_events = 0;
  double drain_max_sim_s = 0.0;
  /// TEST ONLY. Disables the duplex-link hold-count idempotency guard so an
  /// overlapping outage of an already-down duplex re-applies the failure —
  /// the exact bug class the hold counts were built to prevent (the ledger
  /// throws "link is already failed"). Exists so the chaosfuzz planted-bug
  /// gate can prove the fuzzer finds, shrinks, and deterministically
  /// replays a real violation. Never set outside tests.
  bool defeat_duplex_idempotency = false;
  /// Optional flow-event observer (must outlive the simulation). Receives
  /// every event including warm-up; aggregate metrics stay warm-up-filtered.
  TraceSink* trace = nullptr;
  /// Optional admission-decision tracer (must outlive the simulation). DAC
  /// runs only; wired into every AC-router controller with the kernel clock
  /// installed. Spans cover warm-up too (request ids start at 1).
  obs::DecisionTracer* tracer = nullptr;
  /// Optional engine profiler (must outlive the simulation). run() attaches
  /// it to the kernel before the first event and brackets the warm-up,
  /// measurement and drain phases with wall-clock timers. It schedules no
  /// events, so every artifact matches an unprofiled run.
  obs::EngineProfiler* profiler = nullptr;
  /// Optional windowed telemetry sampler (must outlive the simulation; one
  /// Timeline records one run — construct fresh per simulation). run()
  /// registers the standard columns (active flows, admission/teardown/
  /// signaling rates, per-member weights and up/down state, per-link
  /// utilization with within-window high-water marks), attaches the sampler
  /// to the kernel, and marks the warm-up boundary. Interval comes from the
  /// Timeline's own options. Unset costs nothing on the hot path.
  obs::Timeline* timeline = nullptr;
  /// Optional flight recorder (must outlive the simulation). The simulation
  /// feeds it every flow/link/member event it would trace and fires a dump
  /// trigger when a link fault or member churn takes flows down. To also
  /// capture decision spans in the ring, point `tracer`'s sink at the
  /// recorder's span_sink(); to dump on invariant violations, wire the
  /// auditor's violation hook to trigger(). Unset costs nothing.
  obs::FlightRecorder* flight_recorder = nullptr;
  /// Overload governor options. DAC runs only. When set, the constructor
  /// builds the governor (group size, retry ceiling R = max_tries), run()
  /// attaches its feedback window to the kernel, and Simulation::governor()
  /// reads it. Depending on its options it then (1) adapts the effective
  /// retrial bound from windowed rejection/utilization feedback, (2) gates
  /// members through per-member circuit breakers fed by every reservation
  /// outcome and by churn, and (3) sheds requests without any reservation
  /// walk when its signaling budget is exhausted (counted in
  /// SimulationResult::shed, not in offered). Unset costs one pointer check
  /// per use and leaves every artifact byte-identical.
  std::optional<control::GovernorOptions> governor;
  /// Optional kernel telemetry sink (must outlive the simulation; one
  /// collector records one run). run() attaches it to the kernel before the
  /// first event, so it sees every schedule/fire/cancel tagged with the
  /// model's category taxonomy (DESIGN.md §15). Attached runs stay
  /// byte-identical at equal seed — the collector reads only the virtual
  /// clock; unset costs one pointer test per kernel operation and leaves
  /// every artifact byte-identical.
  obs::KernelStats* kernel_stats = nullptr;

  // --- Live ops plane (DESIGN.md §13; all optional, all must outlive the
  // simulation). A recurring ops-poll timer — scheduled only when any of
  // these is set — drains replay directives and the live mailbox on the DES
  // thread, applies them through the governor, logs each application, and
  // publishes fresh /metrics, /status, and /healthz documents. Live
  // publishing reads state and writes to the server only, so an ops-enabled
  // but unsteered run keeps every artifact byte-identical.
  /// HTTP listener to publish scrape documents to (scrape-only is fine).
  obs::OpsServer* ops_server = nullptr;
  /// Live control inlet. Directives drain FIFO at each poll and apply via
  /// the governor's apply_directive, so `governor` is required. Mutually
  /// exclusive with ops_replay (a replayed run is serverless by contract).
  control::DirectiveMailbox* ops_mailbox = nullptr;
  /// Applied-directive log (JSONL). Written at application time with the
  /// DES clock, so replaying it reproduces the steered run byte-identically.
  control::OpsLogWriter* ops_log = nullptr;
  /// Recorded directives to re-apply (load_ops_log). Each applies at the
  /// first poll whose time reaches its apply_at — the same boundary the
  /// live run applied it at. Requires `governor`.
  std::vector<control::TimedDirective> ops_replay;
  /// Simulated seconds between ops polls; align with the governor window so
  /// directives land exactly at window boundaries.
  double ops_interval_s = 50.0;
  /// Extra labels on every live-scrape series (e.g. the chaos cell id).
  obs::Labels ops_labels;
};

/// What the drain watchdog saw (SimulationConfig::drain_max_events /
/// drain_max_sim_s). `tripped` means the post-measurement drain hit a cap
/// with events still queued — the run never reached quiescence and its
/// leak gates are meaningless; harnesses treat this as its own failure
/// class ("hang") rather than a leak.
struct DrainWatchdogReport {
  bool tripped = false;
  std::string reason;              ///< "event budget exhausted" or "sim-time cap reached"
  std::size_t pending_events = 0;  ///< calendar entries still queued at the trip
  std::size_t active_flows = 0;    ///< flows still holding bandwidth at the trip
  double sim_time_s = 0.0;         ///< virtual clock at the trip
  std::size_t drained_events = 0;  ///< events the drain dispatched (capped or not)
};

/// One anycast group's request tallies (measurement window).
struct GroupResult {
  std::string address;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  double admission_probability = 0.0;
  double average_attempts = 0.0;
};

/// Aggregated outcome of a run (measurement window only). With extra groups,
/// the request, flow and per-member tallies (average_messages included)
/// describe the primary group; `messages`, link utilization, active flows
/// and setup delay cover the whole run.
struct SimulationResult {
  std::string system_label;                  ///< e.g. "<ED,2>", "GDI"
  double admission_probability = 0.0;        ///< paper's AP metric
  stats::ConfidenceInterval admission_ci;    ///< 95% batch-means CI on AP
  double average_attempts = 0.0;             ///< paper's retrial metric
  stats::CountHistogram attempts_histogram;  ///< tries-per-request distribution
  double average_messages = 0.0;             ///< signaling messages per request
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t dropped = 0;                 ///< torn down involuntarily (faults + churn)
  std::uint64_t dropped_by_fault = 0;        ///< teardowns caused by link outages
  std::uint64_t dropped_by_churn = 0;        ///< teardowns caused by member churn
  std::uint64_t explicit_teardowns = 0;      ///< normal end-of-holding releases
  std::uint64_t failover_attempts = 0;       ///< churn-displaced flows re-offered
  std::uint64_t failover_admitted = 0;       ///< ... of which the network re-admitted
  /// Requests fast-rejected by the overload governor's signaling budget
  /// with no reservation walk. Counted separately from capacity rejections
  /// and excluded from `offered` (shed requests never enter the DAC loop).
  std::uint64_t shed = 0;
  /// Broken flows re-signaled onto the post-reconvergence route (path
  /// repair; counted separately from churn failover — repair preserves the
  /// admitted flow, failover re-offers a torn-down one).
  std::uint64_t repaired = 0;
  /// Broken flows dropped because no repair was possible (dead endpoint,
  /// partition, or no capacity on the new route). Also in dropped_by_fault.
  std::uint64_t unrepairable = 0;
  /// Route-table recomputes committed (0 without a reconvergence delay).
  std::uint64_t reconvergences = 0;
  /// Router crash transitions applied (overlap-merged).
  std::uint64_t node_outages = 0;
  /// Control-plane recovery tallies (all zero unless config.resilience set).
  signaling::ResilienceStats resilience;
  std::vector<std::uint64_t> per_destination_admissions;
  double average_active_flows = 0.0;
  double mean_link_utilization = 0.0;        ///< time-avg, then mean over links
  double max_link_utilization = 0.0;         ///< time-avg, then max over links
  signaling::MessageCounter messages;        ///< per-kind tallies
  /// Mean AdmissionDecision::decision_delay_s per request, seconds: the
  /// central agency's queueing + service delay (0 where decisions are local).
  double average_decision_delay_s = 0.0;
  /// Signaling setup delay per request: the resilient control plane's
  /// waiting (hop delay, retransmission timeouts, backoff), mean and 95th
  /// percentile. Zero without the resilient plane.
  double average_setup_delay_s = 0.0;
  double p95_setup_delay_s = 0.0;
  /// One row per group, primary first.
  std::vector<GroupResult> groups;
};

/// Runs one configured system to completion.
class Simulation {
 public:
  /// `topology` must outlive the simulation.
  Simulation(const net::Topology& topology, SimulationConfig config);

  /// Executes warm-up plus measurement and returns the results.
  /// May be called once per instance.
  SimulationResult run();

  /// Read access for tests/examples (valid after run()).
  [[nodiscard]] const net::BandwidthLedger& ledger() const { return ledger_; }
  /// Mutable ledger access for instrumentation (observer registration).
  /// Reserving or releasing bandwidth here yourself voids the results.
  [[nodiscard]] net::BandwidthLedger& ledger() { return ledger_; }
  /// The primary group's route table and group.
  [[nodiscard]] const net::RouteTable& routes() const { return groups_.front().routes; }
  [[nodiscard]] const core::AnycastGroup& group() const { return groups_.front().group; }

  /// Registers `observer` on every AC-router controller of every group,
  /// existing and lazily created later (nullptr detaches). DAC runs only —
  /// GDI and other policies have no per-source controllers and never call it.
  void set_admission_observer(core::AdmissionObserver* observer);

  /// Replaces `out` with the per-source selectors instantiated so far,
  /// every group's (DAC runs only; lazily created on first request from a
  /// source). For monitoring and auditing; a caller that keeps `out`
  /// checks them periodically without allocating.
  void active_selectors(
      std::vector<std::pair<net::NodeId, const core::DestinationSelector*>>& out) const;

  /// The simulation kernel — exposed so instrumentation (e.g. the
  /// auditor's checkpoints) can be attached *before* run(). Scheduling model
  /// events here yourself voids the results.
  [[nodiscard]] des::Simulator& simulator() { return simulator_; }
  /// Currently active (admitted, undeparted) flows.
  [[nodiscard]] std::size_t active_flows() const { return flows_.size(); }
  /// True once the post-measurement drain has begun (drain_to_quiescence).
  /// Periodic self-rescheduling instrumentation (auditor checkpoints)
  /// must stop re-arming once this is set, or the
  /// run-to-empty drain never finds an empty calendar.
  [[nodiscard]] bool draining() const { return draining_; }

  /// Ops directives applied so far (mailbox + replay), for summaries.
  [[nodiscard]] std::uint64_t ops_directives_applied() const {
    return ops_directives_applied_;
  }

  /// The overload governor built from config.governor, or nullptr. Exposed
  /// so summaries and the chaos oracle can read its state after run().
  [[nodiscard]] const control::OverloadGovernor* governor() const { return governor_; }

  /// The resilient signaling plane, or nullptr for fault-free runs. Exposed
  /// so the chaos oracle can inspect recovery state after a drained run.
  [[nodiscard]] signaling::ResilientReservationProtocol* resilient() { return resilient_; }
  [[nodiscard]] const signaling::ResilientReservationProtocol* resilient() const {
    return resilient_;
  }

  /// The drain watchdog's report (valid after run(); `tripped` is always
  /// false when no cap was configured or the drain reached quiescence).
  [[nodiscard]] const DrainWatchdogReport& drain_watchdog() const {
    return drain_watchdog_;
  }

  /// Broken flows still queued for repair (0 after a clean drain — the chaos
  /// harness counts a non-empty queue as a leak).
  [[nodiscard]] std::size_t pending_repairs() const {
    return repair_ ? repair_->pending() : 0;
  }
  /// Repair-plane tallies (all zero unless config.path_repair).
  [[nodiscard]] signaling::PathRepairStats repair_stats() const {
    return repair_ ? repair_->stats() : signaling::PathRepairStats{};
  }
  /// True while the route table lags a topology change (reconvergence runs).
  [[nodiscard]] bool routes_stale() const { return routes_stale_; }

  /// "<A,R>" label for a DAC or GDI configuration (e.g. "<WD/D+H,2>",
  /// "GDI"). A policy run is labelled by its policy's label().
  [[nodiscard]] static std::string system_label(const SimulationConfig& config);

 private:
  /// One anycast group's run state: groups_[0] is the primary group (the
  /// config's top-level fields), then config_.extra_groups in order.
  struct GroupState {
    GroupState(const net::Topology& topology, const GroupSpec& spec,
               const TrafficModel& shared, const des::SeedSequence& seeds,
               std::string_view stream_prefix);

    core::AnycastGroup group;
    net::RouteTable routes;
    ArrivalProcess arrivals;  ///< this group's arrivals, sources and holding times
    core::SelectionAlgorithm algorithm;
    std::size_t max_tries;
    double alpha;
    /// One AC-router (controller) per source router, created on its first
    /// request; each keeps its own selector state (DAC runs only).
    std::vector<std::unique_ptr<core::AdmissionController>> controllers;
    MetricsCollector metrics;
  };

  [[nodiscard]] GroupState& primary() { return groups_.front(); }
  /// Sum of one lifetime tally over every group's collector.
  template <typename Tally>
  [[nodiscard]] std::uint64_t lifetime_total(Tally tally) const {
    std::uint64_t total = 0;
    for (const GroupState& state : groups_) {
      total += std::invoke(tally, state.metrics);
    }
    return total;
  }
  /// Samples the run-wide active-flow count into the primary's collector,
  /// which carries SimulationResult::average_active_flows.
  void record_active_flows();
  void schedule_next_arrival(std::uint32_t index);
  void handle_arrival(std::uint32_t index);
  /// Installs an admitted decision as a flow of group `group` (the flow
  /// points at the decision's route) and schedules its departure.
  void start_flow(std::uint32_t group, const core::FlowRequest& request,
                  const core::AdmissionDecision& decision);
  void handle_departure(FlowId id);
  void apply_fault(const LinkFault& fault);
  void repair_fault(const LinkFault& fault);
  void apply_node_down(const NodeFault& fault);
  void apply_node_up(const NodeFault& fault);
  /// Hold-counted duplex transitions (`forward` = even link id). Return true
  /// on an actual 0->1 (down) / 1->0 (up) state change; overlapping outages
  /// of the same duplex only transition once.
  bool take_duplex_down(net::LinkId forward);
  bool bring_duplex_up(net::LinkId forward);
  void drop_flows_on_link(net::LinkId link);
  /// Records a duplex up/down transition with the reconvergence plane:
  /// schedules a route recompute after the reconvergence delay (restart
  /// semantics — a later change supersedes the pending one). No-op without
  /// a delay.
  void note_topology_change();
  void reconverge();
  void run_repair_pass();
  /// Takes an up member of the primary group down: masks it from selection,
  /// trips its breaker, traces MEMBER_DOWN and tears each of its flows down
  /// as churn (DROPPED). A flow that failover should re-offer is re-offered
  /// right after its drop, or appended to `deferred` when that is set.
  void take_member_down(std::size_t member, std::vector<ActiveFlow>* deferred);
  void apply_member_down(std::size_t member);
  void apply_member_up(std::size_t member);
  void attempt_failover(const ActiveFlow& displaced);
  void touch_links(const net::Path& path);
  void emit_trace(TraceEventKind kind, std::uint64_t flow, net::NodeId source,
                  net::NodeId destination, std::size_t attempts, double bandwidth_bps);
  void wire_timeline();
  [[nodiscard]] bool ops_active() const;
  void schedule_ops_poll();
  void ops_poll();
  void apply_ops_directive(const control::ControlDirective& directive);
  void publish_ops();
  core::AdmissionController& controller_for(GroupState& state, net::NodeId source);

  const net::Topology* topology_;
  SimulationConfig config_;
  net::BandwidthLedger ledger_;
  signaling::MessageCounter counter_;
  /// The kernel owns this run's seed universe: every stream below derives
  /// from simulator_.seeds(), so the (simulator, model) pair is fully
  /// isolated — no RNG state outside the instance (DESIGN.md §12).
  des::Simulator simulator_;
  /// Loss, jitter, and backoff draws for the resilient signaling plane.
  /// Declared (and therefore constructed) before rsvp_, which captures it.
  des::RandomStream control_rng_;
  std::unique_ptr<signaling::ReservationProtocol> rsvp_;
  signaling::ResilientReservationProtocol* resilient_ = nullptr;  // rsvp_ downcast or null
  signaling::ProbeService probe_;
  des::RandomStream selection_rng_;
  /// Built iff config_.governor; declared before groups_, whose controllers
  /// point at it.
  std::unique_ptr<control::OverloadGovernor> owned_governor_;
  /// Every group's state, filled completely in the constructor: controllers
  /// and the policy keep references into it.
  std::vector<GroupState> groups_;
  core::AdmissionObserver* admission_observer_ = nullptr;
  std::unique_ptr<core::AdmissionPolicy> policy_;  // GDI or config_.policy; null for DAC
  std::string label_;  // SimulationResult::system_label
  stats::Accumulator decision_delay_;
  stats::Accumulator setup_delay_;
  stats::P2Quantile setup_delay_p95_{0.95};
  FlowTable flows_;
  std::vector<stats::TimeWeighted> link_utilization_;
  // --- Failure-domain plane (empty/idle unless node faults, reconvergence,
  // or path repair are configured) ---
  std::vector<std::uint32_t> duplex_hold_;  // overlapping outages per duplex link
  std::vector<char> duplex_up_;             // 1 while hold count is zero
  std::vector<std::uint32_t> node_hold_;    // overlapping outages per router
  std::unique_ptr<signaling::PathRepair> repair_;  // non-null iff path_repair
  std::uint64_t route_generation_ = 0;  // bumps per change; stale timers no-op
  bool routes_stale_ = false;
  std::uint64_t reconvergences_ = 0;
  std::uint64_t node_outages_ = 0;
  obs::Timeline* timeline_ = nullptr;         // config_.timeline, hot-path copy
  obs::FlightRecorder* flight_ = nullptr;     // config_.flight_recorder, hot-path copy
  control::OverloadGovernor* governor_ = nullptr;  // owned_governor_, hot-path copy
  // Kernel event categories (interned per instance in the constructor; the
  // tags ride every schedule call and are read only by an attached
  // obs::KernelStats — zero-cost otherwise, DESIGN.md §15).
  des::EventCategory cat_arrival_;
  des::EventCategory cat_departure_;
  des::EventCategory cat_link_fault_;
  des::EventCategory cat_churn_;
  des::EventCategory cat_node_fault_;
  des::EventCategory cat_reconverge_;
  des::EventCategory cat_ops_poll_;
  std::vector<obs::Timeline::ColumnId> link_hwm_columns_;  // by LinkId (timeline runs)
  std::vector<double> weight_scratch_;  // the timeline's weight gauges snapshot here
  std::uint64_t next_request_id_ = 0;  // arrival sequence; span/trace join key
  std::size_t ops_replay_next_ = 0;    // first unapplied config_.ops_replay entry
  std::uint64_t ops_directives_applied_ = 0;
  DrainWatchdogReport drain_watchdog_;
  bool ran_ = false;
  bool draining_ = false;  // drain_to_quiescence: arrivals stop, calendar runs dry
};

}  // namespace anyqos::sim
