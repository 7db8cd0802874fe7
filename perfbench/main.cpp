// perfbench — the end-to-end benchmark program (see README.md).
//
//   perfbench --workload paper_sweep|waxman_scale|chaos_matrix --seed N
//             --seconds S --trace 0|1 [--record-reference]
//
// Runs from the repository root (run.py starts it there), where it reads
// the reference digests perfbench/reference.json.
//
// --trace 0 runs the workload's batch of simulations in passes until S host
// seconds have elapsed (at least one pass) and reports the end-to-end
// metrics as medians over the passes. --trace 1 runs every simulation
// untraced and again with a LayerProbe attached, for the per-layer metrics;
// no end-to-end number comes from it. Every simulation's statistics are
// hashed and compared with the reference digests recorded for the default
// and held-out seeds; seed-independent invariants are checked at any seed.
// The last line of stdout is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <vector>

#include "perfbench/layer_probe.h"
#include "perfbench/workloads.h"
#include "src/audit/chaos_oracle.h"
#include "src/net/routing.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/kernel_stats.h"
#include "src/obs/span.h"
#include "src/obs/timeline.h"
#include "src/util/json.h"

namespace {

using namespace perfbench;
namespace sim = anyqos::sim;
namespace obs = anyqos::obs;
namespace util = anyqos::util;

/// Relative to the repository root, the program's working directory.
constexpr const char* kReferencePath = "perfbench/reference.json";

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool record = false;
};

Options parse_options(int argc, char** argv) {
  Options options;
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-reference") {
      options.record = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("flag " + flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    given.insert(flag);
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (given.count(required) == 0) {
      throw std::invalid_argument(std::string(required) + " is required");
    }
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// NaN when there is no sample; metric() refuses it.
double median(std::vector<double> values) {
  if (values.empty()) {
    return kNaN;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Smallest sample, NaN when there is none.
double best(const std::vector<double>& values) {
  return values.empty() ? kNaN : *std::min_element(values.begin(), values.end());
}

/// Not finite when `denominator` is 0; metric() refuses that.
double ratio(double numerator, double denominator) { return numerator / denominator; }

// --- Output check --------------------------------------------------------

std::string format_exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Passed as `events` when the dispatched-event count is unknown.
constexpr std::uint64_t kNoEventCount = std::numeric_limits<std::uint64_t>::max();

/// FNV-1a over the canonical text of a run's simulated statistics. The
/// chaos oracle hides its simulator, so scenario digests leave out the
/// dispatched-event count; the traced run checks it there.
std::string stats_digest(const sim::SimulationResult& r, std::uint64_t events) {
  std::ostringstream text;
  text << "offered=" << r.offered << ";admitted=" << r.admitted << ";shed=" << r.shed
       << ";attempts=";
  for (std::size_t value = 0; value <= r.attempts_histogram.max_value(); ++value) {
    text << r.attempts_histogram.count(value) << ',';
  }
  text << ";messages=";
  for (std::size_t kind = 0; kind < anyqos::signaling::kMessageKindCount; ++kind) {
    text << r.messages.by_kind(static_cast<anyqos::signaling::MessageKind>(kind)) << ',';
  }
  text << ";dropped=" << r.dropped << ',' << r.dropped_by_fault << ',' << r.dropped_by_churn
       << ";teardowns=" << r.explicit_teardowns << ";failover=" << r.failover_attempts << ','
       << r.failover_admitted << ";repaired=" << r.repaired << ',' << r.unrepairable
       << ";reconvergences=" << r.reconvergences << ";node_outages=" << r.node_outages
       << ";retransmits=" << r.resilience.retransmits
       << ";orphans=" << r.resilience.orphans_reclaimed << ";members=";
  for (const std::uint64_t admissions : r.per_destination_admissions) {
    text << admissions << ',';
  }
  if (events != kNoEventCount) {
    text << ";events=" << events;
  }
  text << ";ap=" << format_exact(r.admission_probability);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text.str()) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(hash));
  return buffer;
}

/// Seed-independent invariants of one run; empty when they all hold.
std::string invariant_failure(const sim::SimulationResult& r) {
  if (r.offered == 0) {
    return "no request was offered";
  }
  if (r.admitted > r.offered) {
    return "admitted exceeds offered";
  }
  if (r.attempts_histogram.total() != r.offered) {
    return "attempts histogram does not cover every offered request";
  }
  const std::uint64_t per_member = std::accumulate(r.per_destination_admissions.begin(),
                                                   r.per_destination_admissions.end(),
                                                   std::uint64_t{0});
  if (per_member != r.admitted) {
    return "per-member admissions do not sum to admitted";
  }
  const double expected = static_cast<double>(r.admitted) / static_cast<double>(r.offered);
  if (!(std::abs(r.admission_probability - expected) <= 1e-12)) {
    return "admission probability is not admitted / offered";
  }
  return {};
}

/// Reference digests, recorded per workload for the default and held-out
/// seeds (reference.json).
class Reference {
 public:
  Reference(const std::string& path, bool record) : path_(path), record_(record) {
    std::ifstream file(path);
    if (!file.good()) {
      throw std::runtime_error("cannot open reference digests " + path);
    }
    std::ostringstream text;
    text << file.rdbuf();
    document_ = util::parse_json(text.str());
    default_seed_ = static_cast<std::uint64_t>(document_.at("default_seed").as_number());
    held_out_seed_ = static_cast<std::uint64_t>(document_.at("held_out_seed").as_number());
  }

  /// Which recorded seed `seed` is ("default", "held-out"), or "none".
  [[nodiscard]] std::string role(std::uint64_t seed) const {
    if (seed == default_seed_) {
      return "default";
    }
    return seed == held_out_seed_ ? "held-out" : "none";
  }

  /// The recorded digests for (workload, seed), or nullptr.
  [[nodiscard]] const util::JsonArray* digests(const std::string& workload,
                                               std::uint64_t seed) const {
    const util::JsonValue* by_seed = document_.at("digests").find(workload);
    if (by_seed == nullptr) {
      return nullptr;
    }
    const util::JsonValue* list = by_seed->find(std::to_string(seed));
    return list == nullptr ? nullptr : &list->as_array();
  }

  void record(const std::string& workload, std::uint64_t seed,
              const std::vector<std::string>& digests) {
    util::JsonValue list = util::JsonValue::array();
    for (const std::string& digest : digests) {
      list.push_back(util::JsonValue::string(digest));
    }
    util::JsonValue& all = member(document_, "digests");
    util::JsonValue& by_seed = member(all, workload);
    by_seed.set(std::to_string(seed), std::move(list));
    std::ofstream file(path_);
    file << document_.dump(true) << "\n";
    if (!file.good()) {
      throw std::runtime_error("cannot write reference digests " + path_);
    }
  }

  [[nodiscard]] bool recording() const { return record_; }

 private:
  static util::JsonValue& member(util::JsonValue& object, const std::string& key) {
    if (object.find(key) == nullptr) {
      object.set(key, util::JsonValue::object());
    }
    for (auto& [name, value] : object.as_object()) {
      if (name == key) {
        return value;
      }
    }
    throw std::logic_error("member vanished");
  }

  std::string path_;
  bool record_;
  util::JsonValue document_;
  std::uint64_t default_seed_ = 0;
  std::uint64_t held_out_seed_ = 0;
};

/// Compares each case's digest with the first pass and with the reference.
class DigestCheck {
 public:
  /// While recording, only the pass-to-pass comparison applies.
  DigestCheck(const Reference& reference, const Workload& workload, std::uint64_t seed)
      : expected_(reference.recording() ? nullptr : reference.digests(workload.name, seed)),
        first_(workload.cases.size()) {
    if (expected_ != nullptr && expected_->size() != workload.cases.size()) {
      throw std::runtime_error("reference digest list does not match the workload's cases");
    }
  }

  /// Empty when `digest` is what case `index` must produce.
  std::string check(std::size_t index, const std::string& digest) {
    if (first_[index].empty()) {
      first_[index] = digest;
    } else if (first_[index] != digest) {
      return "digest changed between passes (" + first_[index] + " then " + digest + ")";
    }
    if (expected_ != nullptr && (*expected_)[index].as_string() != digest) {
      return "digest " + digest + " differs from reference " + (*expected_)[index].as_string();
    }
    return {};
  }

  [[nodiscard]] const std::vector<std::string>& digests() const { return first_; }

 private:
  const util::JsonArray* expected_;
  std::vector<std::string> first_;
};

// --- Shared running pieces -----------------------------------------------

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const SimCase& c, const std::string& why) {
    ++failed;
    std::cerr << "FAILED " << c.label << ": " << why << "\n";
  }
};

/// Builds `c` `repeats` times, appending each set-up time to `samples`,
/// and returns the last build.
Prepared timed_setup(const SimCase& c, std::size_t repeats, std::vector<double>& samples) {
  for (std::size_t r = 1;; ++r) {
    const Clock::time_point start = Clock::now();
    Prepared prepared = prepare(c);
    samples.push_back(seconds_between(start, Clock::now()));
    if (r >= repeats) {
      return prepared;
    }
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// A metric's JSON entry. A value that is not finite means the layer it
/// measures did not run where it must, which fails the whole run.
util::JsonValue metric(const std::string& name, double value, const char* unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  util::JsonValue entry = util::JsonValue::object();
  entry.set("value", util::JsonValue::number(value));
  entry.set("unit", util::JsonValue::string(unit));
  return entry;
}

// --- End-to-end run (--trace 0) -----------------------------------------

/// Runs the batch in passes until the time is up, keeping every case's set-up
/// and run times. Each metric is built from per-case medians over the
/// passes, so a slow stretch of the host that hits a few samples does not
/// move it.
util::JsonValue run_end_to_end(const Workload& workload, const Options& options,
                               DigestCheck& check, Tally& tally) {
  const std::size_t cases = workload.cases.size();
  std::vector<std::vector<double>> setup_samples(cases);
  std::vector<std::vector<double>> run_samples(cases);
  std::vector<double> requests(cases, 0.0);
  std::size_t passes = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (std::size_t i = 0; i < cases; ++i) {
      const SimCase& c = workload.cases[i];
      ++tally.attempted;
      try {
        Prepared prepared = timed_setup(c, workload.setup_repeats, setup_samples[i]);
        sim::SimulationResult result;
        std::uint64_t events = kNoEventCount;
        std::string failure;
        const Clock::time_point run_start = Clock::now();
        if (c.scenario) {
          const anyqos::audit::ChaosOracleOutcome outcome =
              anyqos::audit::run_chaos_oracle(*prepared.scenario);
          run_samples[i].push_back(seconds_between(run_start, Clock::now()));
          result = outcome.result;
          if (!outcome.clean()) {
            failure = "oracle verdict " + outcome.violation_class + " (" + outcome.detail + ")";
          }
        } else {
          result = prepared.simulation->run();
          run_samples[i].push_back(seconds_between(run_start, Clock::now()));
          events = prepared.simulation->simulator().dispatched_events();
        }
        // Equal at every pass once the digest check holds.
        requests[i] = static_cast<double>(result.offered + result.shed);
        if (failure.empty()) {
          failure = invariant_failure(result);
        }
        if (failure.empty()) {
          failure = check.check(i, stats_digest(result, events));
        }
        if (!failure.empty()) {
          tally.fail(c, failure);
        }
      } catch (const std::exception& error) {
        tally.fail(c, std::string("exception: ") + error.what());
      }
    }
    ++passes;
    std::cerr << "pass " << passes << " done at " << seconds_between(start, Clock::now())
              << " s\n";
  } while (seconds_between(start, Clock::now()) < options.seconds);

  double total_requests = 0.0;
  double run_s = 0.0;
  double setup_s = 0.0;
  for (std::size_t i = 0; i < cases; ++i) {
    if (run_samples[i].empty()) {
      continue;  // failed at every pass, which `failed` counts
    }
    total_requests += requests[i];
    run_s += median(run_samples[i]);
    setup_s += median(setup_samples[i]);
  }
  const double requests_per_s = ratio(total_requests, run_s);
  const double rss = peak_rss_mb();
  const double error_rate = ratio(static_cast<double>(tally.failed),
                                  static_cast<double>(tally.attempted));
  std::cout << "passes           " << passes << " x " << cases << " simulations\n"
            << "requests_per_s   " << format_exact(requests_per_s) << " 1/s\n"
            << "setup_s          " << format_exact(setup_s) << " s\n"
            << "peak_rss_mb      " << format_exact(rss) << " MB\n"
            << "error_rate       " << format_exact(error_rate) << " failed/attempted ("
            << tally.failed << "/" << tally.attempted << ")\n";
  util::JsonValue metrics = util::JsonValue::object();
  metrics.set("requests_per_s", metric("requests_per_s", requests_per_s, "1/s"));
  metrics.set("setup_s", metric("setup_s", setup_s, "s"));
  metrics.set("peak_rss_mb", metric("peak_rss_mb", rss, "MB"));
  return metrics;
}

// --- Traced run (--trace 1) ---------------------------------------------

/// Layer totals summed over every traced simulation of a run.
struct LayerTotals {
  std::map<std::string, SegmentTotals> dispatch;  // whole events by category name
  SegmentTotals select, attempt, arrival_pre, arrival_post, gdi_decision;
  std::uint64_t scheduled = 0, fired = 0, cancelled = 0, arrivals = 0;
  std::uint64_t requests = 0, attempts = 0, admits = 0, decisions = 0, messages = 0;
  std::uint64_t offered = 0, retransmits = 0;
  std::uint64_t resilient_runs = 0;  // runs with resilient signaling on
  std::size_t peak_pending = 0, peak_active = 0;
  std::int64_t replay_ns = 0;
  std::uint64_t replay_pops = 0;
  double untraced_s = 0.0, traced_s = 0.0, oracle_s = 0.0;
  std::vector<double> route_table_s;
  double route_hops = 0.0;
};

/// An ostream buffer that accepts and drops everything, so attached span
/// and flight sinks do their full formatting work without growing memory.
class DiscardBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char* /*data*/, std::streamsize count) override { return count; }
};

/// Runs one case untraced, then traced with a LayerProbe, and folds the
/// probe's segments into `totals`. Returns a failure description or "".
std::string trace_case(const SimCase& c, std::size_t index, DigestCheck& check,
                       LayerTotals& totals) {
  // Untraced reference run (the oracle run too, for scenarios).
  sim::SimulationResult oracle_result;
  double oracle_s = 0.0;
  if (c.scenario) {
    const sim::Scenario scenario = sim::load_scenario(c.scenario_text);
    const Clock::time_point start = Clock::now();
    const anyqos::audit::ChaosOracleOutcome outcome = anyqos::audit::run_chaos_oracle(scenario);
    oracle_s = seconds_between(start, Clock::now());
    if (!outcome.clean()) {
      return "oracle verdict " + outcome.violation_class + " (" + outcome.detail + ")";
    }
    oracle_result = outcome.result;
  }
  sim::SimulationResult plain;
  double untraced_s = 0.0;
  std::uint64_t plain_events = 0;
  {
    Prepared untraced = prepare(c);
    const Clock::time_point start = Clock::now();
    plain = untraced.simulation->run();
    untraced_s = seconds_between(start, Clock::now());
    plain_events = untraced.simulation->simulator().dispatched_events();
    if (untraced.simulation->drain_watchdog().tripped) {
      return "drain watchdog tripped: " + untraced.simulation->drain_watchdog().reason;
    }
  }

  const bool gdi = !c.scenario && c.config.use_gdi;
  Prepared traced = prepare(c);
  LayerProbe probe(*traced.simulation);
  const Clock::time_point start = Clock::now();
  probe.begin();
  const sim::SimulationResult result = traced.simulation->run();
  probe.end();
  const double traced_s = seconds_between(start, Clock::now());
  const std::uint64_t traced_events = traced.simulation->simulator().dispatched_events();
  const std::size_t peak_pending = traced.simulation->simulator().peak_pending_events();

  // Output check: untraced, traced and (for scenarios) oracle statistics
  // must agree, and match the reference.
  const std::uint64_t events = c.scenario ? kNoEventCount : plain_events;
  const std::string digest = stats_digest(plain, events);
  std::string failure = invariant_failure(plain);
  if (failure.empty()) {
    failure = check.check(index, digest);
  }
  if (failure.empty() &&
      stats_digest(result, c.scenario ? kNoEventCount : traced_events) != digest) {
    failure = "traced statistics differ from the untraced run";
  }
  if (failure.empty() && traced_events != plain_events) {
    failure = "traced run dispatched a different number of events";
  }
  if (failure.empty() && c.scenario && stats_digest(oracle_result, kNoEventCount) != digest) {
    failure = "oracle statistics differ from the bare run";
  }
  // Traced-run validity: segments partition the traced wall time, and the
  // recorded sequence replays to exactly the dispatched events.
  const double segment_s = static_cast<double>(probe.segment_sum_ns()) * 1e-9;
  if (failure.empty() && std::abs(segment_s - traced_s) > 0.01 * traced_s + 1e-4) {
    failure = "segments sum to " + format_exact(segment_s) + " s of a " +
              format_exact(traced_s) + " s traced run";
  }
  std::vector<QueueOp> ops = probe.take_ops();
  const ReplayResult replay = replay_queue(ops);
  ops = {};
  if (failure.empty() && (replay.pops != traced_events || probe.fired() != traced_events)) {
    failure = "queue replay popped " + std::to_string(replay.pops) + " of " +
              std::to_string(traced_events) + " dispatched events";
  }
  if (!failure.empty()) {
    return failure;
  }

  totals.oracle_s += oracle_s;
  totals.untraced_s += untraced_s;
  totals.traced_s += traced_s;
  totals.replay_ns += replay.ns;
  totals.replay_pops += replay.pops;
  for (std::size_t id = 0; id < probe.category_names().size(); ++id) {
    totals.dispatch[probe.category_names()[id]].add(probe.dispatch()[id]);
  }
  const SegmentTotals arrival_events = probe.dispatch()[probe.arrival_category()];
  if (gdi) {
    totals.gdi_decision.add(arrival_events);
  } else {
    SegmentTotals pre = probe.rest_of_event(probe.arrival_category());
    pre.count = arrival_events.count;
    totals.arrival_pre.add(pre);
    totals.arrival_post.add(probe.arrival_post());
    totals.select.add(probe.select());
    totals.attempt.add(probe.attempt());
  }
  totals.scheduled += probe.scheduled();
  totals.fired += probe.fired();
  totals.cancelled += probe.cancelled();
  totals.arrivals += arrival_events.count;
  totals.requests += probe.select().count;
  totals.attempts += probe.attempt().count;
  totals.admits += probe.admits();
  totals.decisions += probe.decisions();
  totals.messages += probe.messages();
  totals.offered += result.offered;
  totals.retransmits += result.resilience.retransmits;
  const sim::SimulationConfig& config = c.scenario ? traced.run->config : c.config;
  totals.resilient_runs += config.resilience.has_value() ? 1 : 0;
  totals.peak_pending = std::max(totals.peak_pending, peak_pending);
  totals.peak_active = std::max(totals.peak_active, probe.peak_active_flows());
  return {};
}

/// Direct timing of net::RouteTable on the workload's first case. Only the
/// topology is built beforehand, not a Simulation with its own route table.
void time_route_table(const Workload& workload, LayerTotals& totals) {
  const SimCase& c = workload.cases.front();
  std::unique_ptr<sim::ScenarioRun> run;
  std::unique_ptr<anyqos::net::Topology> built;
  if (c.scenario) {
    run = sim::make_scenario_run(sim::load_scenario(c.scenario_text));
  } else {
    built = std::make_unique<anyqos::net::Topology>(build_topology(c.topology));
  }
  const anyqos::net::Topology& topology = c.scenario ? run->topology : *built;
  const sim::SimulationConfig& config = c.scenario ? run->config : c.config;
  const std::vector<anyqos::net::NodeId>& members = config.group_members;
  const std::vector<anyqos::net::NodeId>& sources = config.traffic.sources;
  std::vector<double> samples;
  double hops = 0.0;
  for (std::size_t r = 0; r < workload.setup_repeats; ++r) {
    const Clock::time_point start = Clock::now();
    const anyqos::net::RouteTable routes(topology, members);
    samples.push_back(seconds_between(start, Clock::now()));
    std::size_t total = 0;
    for (const anyqos::net::NodeId source : sources) {
      for (std::size_t m = 0; m < members.size(); ++m) {
        total += routes.distance(source, m);
      }
    }
    hops = static_cast<double>(total) / static_cast<double>(sources.size() * members.size());
  }
  totals.route_table_s.push_back(median(samples));
  totals.route_hops = hops;
}

/// Plane-overhead matrix on one case: each observability plane attached
/// through its SimulationConfig pointer against the bare run, interleaved
/// over rounds; the best round of each is compared, since scheduler noise
/// only ever adds time. Simulated results must not move (a plane's own
/// timer events aside, so the dispatched-event count is left out).
std::map<std::string, double> plane_overheads(const SimCase& c, Tally& tally) {
  const std::vector<std::string> planes = {"bare", "flight", "timeline", "kernel_stats", "spans"};
  constexpr std::size_t kRounds = 5;
  std::map<std::string, std::vector<double>> walls;
  std::string bare_digest;
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t k = 0; k < planes.size(); ++k) {
      const std::string& plane = planes[(k + round) % planes.size()];
      DiscardBuffer discard;
      std::ostream sink_stream(&discard);
      obs::FlightRecorder recorder;
      obs::Timeline timeline;
      obs::KernelStats kernel_stats;
      obs::JsonlSpanSink spans(sink_stream);
      obs::DecisionTracer tracer;
      recorder.set_output(&sink_stream);
      ++tally.attempted;
      try {
        Prepared prepared = prepare(c, [&](sim::SimulationConfig& config) {
          if (plane == "flight") {
            // As chaossim arms it: the recorder plus decision spans in its ring.
            tracer.set_sink(&recorder.span_sink());
            config.tracer = &tracer;
            config.flight_recorder = &recorder;
          } else if (plane == "timeline") {
            config.timeline = &timeline;
          } else if (plane == "kernel_stats") {
            config.kernel_stats = &kernel_stats;
          } else if (plane == "spans") {
            tracer.set_sink(&spans);
            config.tracer = &tracer;
          }
        });
        const Clock::time_point start = Clock::now();
        const sim::SimulationResult result = prepared.simulation->run();
        walls[plane].push_back(seconds_between(start, Clock::now()));
        const std::string digest = stats_digest(result, kNoEventCount);
        if (plane == "bare") {
          bare_digest = digest;
        } else if (!bare_digest.empty() && digest != bare_digest) {
          tally.fail(c, "attaching the " + plane + " plane changed the simulated statistics");
        }
      } catch (const std::exception& error) {
        tally.fail(c, plane + " plane: " + error.what());
      }
    }
  }
  // A plane that failed at every round (counted in `tally`) has no figure.
  std::map<std::string, double> overhead;
  for (const std::string& plane : planes) {
    if (plane != "bare" && !walls[plane].empty() && !walls["bare"].empty()) {
      overhead[plane] = ratio(best(walls[plane]), best(walls["bare"])) - 1.0;
    }
  }
  return overhead;
}

util::JsonValue run_traced(const Workload& workload, const Options& options, DigestCheck& check,
                           Tally& tally) {
  LayerTotals totals;
  std::size_t passes = 0;
  const Clock::time_point start = Clock::now();
  do {
    time_route_table(workload, totals);
    for (std::size_t i = 0; i < workload.cases.size(); ++i) {
      const SimCase& c = workload.cases[i];
      ++tally.attempted;
      try {
        const std::string failure = trace_case(c, i, check, totals);
        if (!failure.empty()) {
          tally.fail(c, failure);
        }
      } catch (const std::exception& error) {
        tally.fail(c, std::string("exception: ") + error.what());
      }
    }
    ++passes;
    std::cerr << "traced pass " << passes << " done\n";
  } while (seconds_between(start, Clock::now()) < options.seconds);
  std::map<std::string, double> planes;
  if (workload.plane_case.has_value()) {
    planes = plane_overheads(workload.cases[*workload.plane_case], tally);
  }

  auto per = [](const SegmentTotals& segment) {
    return ratio(static_cast<double>(segment.busy_ns), static_cast<double>(segment.count));
  };
  const double fired = static_cast<double>(totals.fired);
  // `recorded` holds BENCHMARK.json's per-layer metrics, which every workload
  // measures. `local` holds layers that run on some workloads only; they are
  // printed by name where they ran and left out elsewhere, never given a
  // placeholder value.
  std::vector<std::pair<std::string, util::JsonValue>> recorded, local;
  auto add = [](auto& rows, const std::string& name, double value, const char* unit) {
    rows.emplace_back(name, metric(name, value, unit));
  };
  add(recorded, "des.queue_ns_per_event",
      ratio(static_cast<double>(totals.replay_ns), static_cast<double>(totals.replay_pops)), "ns");
  add(recorded, "des.queue_share",
      ratio(static_cast<double>(totals.replay_ns) * 1e-9, totals.untraced_s), "ratio");
  const std::set<std::string> everywhere = {"sim.arrival", "sim.departure"};
  for (const std::string& category : everywhere) {
    add(recorded, "des.dispatch_ns." + category, per(totals.dispatch[category]), "ns");
  }
  for (const auto& [category, segment] : totals.dispatch) {
    if (segment.count > 0 && everywhere.count(category) == 0) {
      add(local, "des.dispatch_ns." + category, per(segment), "ns");
    }
  }
  add(recorded, "des.events_per_request", ratio(fired, static_cast<double>(totals.arrivals)),
      "ratio");
  add(recorded, "des.peak_pending", static_cast<double>(totals.peak_pending), "count");
  add(recorded, "core.select_ns", per(totals.select), "ns");
  add(recorded, "core.attempts_per_request",
      ratio(static_cast<double>(totals.attempts), static_cast<double>(totals.requests)), "ratio");
  add(recorded, "core.admits_per_attempt",
      ratio(static_cast<double>(totals.admits), static_cast<double>(totals.attempts)), "ratio");
  add(recorded, "signaling.attempt_ns", per(totals.attempt), "ns");
  add(recorded, "signaling.messages_per_request",
      ratio(static_cast<double>(totals.messages), static_cast<double>(totals.decisions)), "ratio");
  add(recorded, "net.route_table_build_s", median(totals.route_table_s), "s");
  add(recorded, "net.mean_route_hops", totals.route_hops, "count");
  add(recorded, "sim.arrival_pre_ns", per(totals.arrival_pre), "ns");
  add(recorded, "sim.arrival_post_ns", per(totals.arrival_post), "ns");
  add(recorded, "sim.peak_active_flows", static_cast<double>(totals.peak_active), "count");
  add(recorded, "obs.tracing_overhead", ratio(totals.traced_s, totals.untraced_s) - 1.0, "ratio");
  if (totals.gdi_decision.count > 0) {
    add(local, "core.gdi_decision_ns", per(totals.gdi_decision), "ns");
  }
  if (totals.resilient_runs > 0) {
    // Retransmits, and every cancel these workloads make, come from
    // resilient signaling's timers.
    add(local, "des.cancel_ratio",
        ratio(static_cast<double>(totals.cancelled), static_cast<double>(totals.scheduled)),
        "ratio");
    add(local, "signaling.retransmits_per_request",
        ratio(static_cast<double>(totals.retransmits), static_cast<double>(totals.offered)),
        "ratio");
  }
  if (totals.oracle_s > 0.0) {
    add(local, "audit.oracle_overhead", ratio(totals.oracle_s, totals.untraced_s) - 1.0, "ratio");
  }
  for (const auto& [plane, overhead] : planes) {
    add(local, "obs." + plane + "_overhead", overhead, "ratio");
  }

  auto print = [](const std::pair<std::string, util::JsonValue>& row) {
    const std::string& name = row.first;
    std::cout << name << std::string(name.size() < 36 ? 36 - name.size() : 1, ' ')
              << row.second.at("value").dump() << " " << row.second.at("unit").as_string()
              << "\n";
  };
  std::cout << "traced passes    " << passes << " x " << workload.cases.size()
            << " simulations\n";
  util::JsonValue metrics = util::JsonValue::object();
  for (auto& row : recorded) {
    print(row);
    metrics.set(row.first, std::move(row.second));
  }
  if (!local.empty()) {
    std::cout << "layers that run on this workload only (not in the JSON result):\n";
  }
  for (const auto& row : local) {
    print(row);
  }
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  Workload workload;
  try {
    options = parse_options(argc, argv);
    workload = make_workload(options.workload, options.seed);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
  try {
    Reference reference(kReferencePath, options.record);
    DigestCheck check(reference, workload, options.seed);
    std::cout << "workload         " << workload.name << " (seed " << options.seed
              << ", reference: " << reference.role(options.seed) << ")\n";
    Tally tally;
    util::JsonValue metrics = options.trace ? run_traced(workload, options, check, tally)
                                            : run_end_to_end(workload, options, check, tally);
    if (reference.recording()) {
      reference.record(workload.name, options.seed, check.digests());
      std::cerr << "recorded " << check.digests().size() << " digests for seed "
                << options.seed << "\n";
    }
    util::JsonValue result = util::JsonValue::object();
    result.set("correct", util::JsonValue::boolean(tally.failed == 0));
    result.set("attempted", util::JsonValue::number(static_cast<double>(tally.attempted)));
    result.set("failed", util::JsonValue::number(static_cast<double>(tally.failed)));
    result.set("metrics", std::move(metrics));
    std::cout << result.dump() << std::endl;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
