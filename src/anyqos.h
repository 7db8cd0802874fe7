// anyqos — umbrella header.
//
// Distributed Admission Control for anycast flows with QoS requirements
// (Xuan & Jia, ICDCS 2001), implemented as a C++20 library. Include this
// to get the whole public API; production users typically include the
// individual module headers instead.
//
// Layer map (each namespace is independently usable):
//
//   anyqos::util       contracts, CLI flags, table printing
//   anyqos::stats      accumulators, confidence intervals, quantiles
//   anyqos::des        discrete-event kernel + reproducible RNG streams
//   anyqos::net        topology, bandwidth ledger, routing (+DV/LS protocols)
//   anyqos::obs        metrics registry, decision spans, engine profiler
//   anyqos::sched      WFQ / Virtual Clock packet schedulers
//   anyqos::signaling  RSVP-like reservation, probes, soft state
//   anyqos::core       the DAC procedure, selectors, baselines, QoS mapping
//   anyqos::sim        flow-level simulation, metrics, faults, experiments
//   anyqos::analysis   Erlang fixed point, UAA, AP analysis, capacity
//   anyqos::audit      runtime invariant auditing (ledger, weights, retrials)
//
// Start with examples/quickstart.cpp for the canonical wiring.
#pragma once

#include "src/analysis/ap_analysis.h"
#include "src/analysis/capacity.h"
#include "src/analysis/erlang.h"
#include "src/analysis/fixed_point.h"
#include "src/analysis/retry_extension.h"
#include "src/analysis/uaa.h"
#include "src/analysis/wdb_meanfield.h"
#include "src/audit/auditor.h"
#include "src/audit/violation.h"
#include "src/core/admission.h"
#include "src/core/centralized.h"
#include "src/core/delay_admission.h"
#include "src/core/group.h"
#include "src/core/history.h"
#include "src/core/multipath_admission.h"
#include "src/core/qos.h"
#include "src/core/retrial.h"
#include "src/core/selector.h"
#include "src/core/selectors.h"
#include "src/core/weights.h"
#include "src/des/event_queue.h"
#include "src/des/random.h"
#include "src/des/simulator.h"
#include "src/net/bandwidth.h"
#include "src/net/distance_vector.h"
#include "src/net/graph.h"
#include "src/net/link_state.h"
#include "src/net/metrics.h"
#include "src/net/multipath.h"
#include "src/net/reconvergence.h"
#include "src/net/routing.h"
#include "src/net/topologies.h"
#include "src/net/topology.h"
#include "src/net/topology_io.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/profiler.h"
#include "src/obs/registry.h"
#include "src/obs/span.h"
#include "src/obs/timeline.h"
#include "src/sched/token_bucket.h"
#include "src/sched/wfq.h"
#include "src/signaling/message.h"
#include "src/signaling/path_repair.h"
#include "src/signaling/probe.h"
#include "src/signaling/rsvp.h"
#include "src/signaling/soft_state.h"
#include "src/sim/experiment.h"
#include "src/sim/faults.h"
#include "src/sim/flow_table.h"
#include "src/sim/metrics.h"
#include "src/sim/metrics_export.h"
#include "src/sim/simulation.h"
#include "src/sim/trace.h"
#include "src/sim/traffic.h"
#include "src/stats/accumulator.h"
#include "src/stats/confidence.h"
#include "src/stats/histogram.h"
#include "src/stats/quantile.h"
#include "src/stats/time_weighted.h"
#include "src/util/cli.h"
#include "src/util/require.h"
#include "src/util/strings.h"
#include "src/util/table.h"
