// End-to-end contract of the live ops plane (DESIGN.md §13): steering a
// run over a real socket, scraping the published documents, and replaying
// the recorded ops log byte-identically — plus the zero-perturbation
// guarantee that an idle ops plane changes no artifact byte.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sstream>
#include <string>

#include "src/control/directive.h"
#include "src/control/governor.h"
#include "src/net/topologies.h"
#include "src/obs/ops_server.h"
#include "src/obs/timeline.h"
#include "src/sim/metrics_export.h"
#include "src/sim/simulation.h"
#include "src/sim/trace.h"

namespace anyqos {
namespace {

sim::SimulationConfig ops_config() {
  sim::SimulationConfig config;
  config.traffic.arrival_rate = 20.0;
  config.traffic.mean_holding_s = 60.0;
  config.traffic.flow_bandwidth_bps = 64'000.0;
  config.traffic.sources = {1, 3, 5, 7, 9, 11, 13, 15, 17};
  config.group_members = {0, 4, 8, 12, 16};
  config.algorithm = core::SelectionAlgorithm::kEvenDistribution;
  config.max_tries = 2;
  config.warmup_s = 0.0;
  config.measure_s = 400.0;
  config.seed = 33;
  config.ops_interval_s = 50.0;
  return config;
}

// One blocking HTTP exchange against the loopback ops server.
std::string http_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)), 0);
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    EXPECT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (ssize_t n = 0; (n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0;) {
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& target) {
  return http_exchange(port, "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

std::string http_post(std::uint16_t port, const std::string& target, const std::string& body) {
  return http_exchange(port, "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body);
}

struct RunArtifacts {
  std::string trace;
  std::string timeline;
  std::string ops_log;
  std::uint64_t directives_applied = 0;
  sim::SimulationResult result;
};

// Runs the config once, with optional live mailbox/server wiring and an
// optional pre-recorded replay, capturing every byte-comparable artifact.
RunArtifacts run_once(sim::SimulationConfig config, obs::OpsServer* server,
                      control::DirectiveMailbox* mailbox,
                      std::vector<control::TimedDirective> replay) {
  const net::Topology topo = net::topologies::mci_backbone();
  config.governor = control::GovernorOptions{};
  config.ops_server = server;
  config.ops_mailbox = mailbox;
  config.ops_replay = std::move(replay);

  std::ostringstream trace_out;
  sim::CsvTraceSink trace(trace_out);
  config.trace = &trace;
  obs::TimelineOptions timeline_options;
  timeline_options.interval_s = 50.0;
  obs::Timeline timeline(timeline_options);
  config.timeline = &timeline;
  std::ostringstream log_out;
  control::OpsLogWriter ops_log(log_out);
  config.ops_log = &ops_log;

  sim::Simulation simulation(topo, config);
  RunArtifacts artifacts;
  artifacts.result = simulation.run();
  artifacts.trace = trace_out.str();
  std::ostringstream timeline_out;
  timeline.write_jsonl(timeline_out);
  artifacts.timeline = timeline_out.str();
  artifacts.ops_log = log_out.str();
  artifacts.directives_applied = simulation.ops_directives_applied();
  return artifacts;
}

TEST(OpsPlaneIntegration, SteerScrapeAndReplayByteIdentically) {
  control::DirectiveMailbox mailbox;
  obs::OpsServer server;
  server.set_control_handler(obs::mailbox_control_handler(mailbox));
  server.start();

  // Steer over the wire before the run starts: both directives sit in the
  // mailbox and drain at the first ops poll (t = 50), which makes the live
  // leg deterministic without any wall-clock coordination.
  EXPECT_NE(http_post(server.port(), "/control/shed-budget", "2").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(http_post(server.port(), "/control/retrial-ceiling", "1").find("HTTP/1.1 200"),
            std::string::npos);

  const RunArtifacts live = run_once(ops_config(), &server, &mailbox, {});
  EXPECT_EQ(live.directives_applied, 2u);
  ASSERT_FALSE(live.ops_log.empty());
  // Both directives were applied (and logged) at the first poll boundary.
  EXPECT_NE(live.ops_log.find("\"t\":50,\"knob\":\"shed-budget\",\"value\":2"),
            std::string::npos);
  EXPECT_NE(live.ops_log.find("\"t\":50,\"knob\":\"retrial-ceiling\",\"value\":1"),
            std::string::npos);
  EXPECT_GT(live.result.shed, 0u);  // budget 2 msgs/s under lambda 20 bites hard

  // The published documents describe the finished run, over a real socket.
  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("anyqos_sim_time_seconds"), std::string::npos);
  EXPECT_NE(metrics.find("anyqos_governor_effective_retries"), std::string::npos);
  EXPECT_NE(metrics.find("outcome=\"shed\""), std::string::npos);
  const std::string status = http_get(server.port(), "/status");
  EXPECT_NE(status.find("\"directives_applied\":2"), std::string::npos);
  EXPECT_NE(status.find("\"effective_max_tries\":1"), std::string::npos);
  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"draining\":false"), std::string::npos);
  server.stop();

  // Replay the recorded log in a serverless run: every artifact byte-matches
  // and the re-recorded ops log is a fixpoint.
  std::istringstream log_in(live.ops_log);
  const RunArtifacts replay =
      run_once(ops_config(), nullptr, nullptr, control::load_ops_log(log_in));
  EXPECT_EQ(replay.directives_applied, 2u);
  EXPECT_EQ(replay.trace, live.trace);
  EXPECT_EQ(replay.timeline, live.timeline);
  EXPECT_EQ(replay.ops_log, live.ops_log);
  EXPECT_EQ(replay.result.admitted, live.result.admitted);
  EXPECT_EQ(replay.result.shed, live.result.shed);
}

TEST(OpsPlaneIntegration, IdleOpsPlaneChangesNoArtifactByte) {
  // A scrape-only server (no directives) must not perturb the run: the ops
  // poll timer reads state and publishes but never mutates, so the trace
  // and timeline are byte-identical to a run with no ops plane at all.
  const net::Topology topo = net::topologies::mci_backbone();

  const auto run_plain = [&topo](sim::SimulationConfig config,
                                 obs::OpsServer* server) {
    config.governor = control::GovernorOptions{};
    config.ops_server = server;
    std::ostringstream trace_out;
    sim::CsvTraceSink trace(trace_out);
    config.trace = &trace;
    obs::TimelineOptions timeline_options;
    timeline_options.interval_s = 50.0;
    obs::Timeline timeline(timeline_options);
    config.timeline = &timeline;
    sim::Simulation simulation(topo, config);
    (void)simulation.run();
    std::ostringstream timeline_out;
    timeline.write_jsonl(timeline_out);
    return std::make_pair(trace_out.str(), timeline_out.str());
  };

  const auto baseline = run_plain(ops_config(), nullptr);
  obs::OpsServer server;
  server.start();
  const auto observed = run_plain(ops_config(), &server);
  server.stop();
  EXPECT_EQ(observed.first, baseline.first);
  EXPECT_EQ(observed.second, baseline.second);
}

TEST(OpsPlaneIntegration, ExportMetricsPassesExtraLabelsThrough) {
  // chaossim publishes one registry for the whole matrix with a cell=<n>
  // label per run; every exported series must carry the extra labels.
  const net::Topology topo = net::topologies::mci_backbone();
  sim::SimulationConfig config = ops_config();
  sim::Simulation simulation(topo, config);
  const sim::SimulationResult result = simulation.run();

  obs::MetricsRegistry registry;
  sim::export_metrics(simulation, config, result, registry, {{"cell", "7"}});
  EXPECT_EQ(registry
                .counter("anyqos_requests_total", "",
                         {{"system", result.system_label},
                          {"outcome", "admitted"},
                          {"cell", "7"}})
                .value(),
            result.admitted);

  std::ostringstream prom;
  registry.write_prometheus(prom);
  // Every series line (not HELP/TYPE comments) carries the cell label.
  std::istringstream lines(prom.str());
  std::size_t series_lines = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line.front() == '#') {
      continue;
    }
    ++series_lines;
    EXPECT_NE(line.find("cell=\"7\""), std::string::npos) << line;
  }
  EXPECT_GT(series_lines, 20u);
}

}  // namespace
}  // namespace anyqos
