// Live ops plane: in-process HTTP listener (observability layer 3).
//
// A dependency-free HTTP/1.1 server — one accept thread, blocking sockets,
// nothing beyond POSIX — that exposes a running simulation:
//
//   GET  /metrics         Prometheus text exposition (published snapshot)
//   GET  /healthz         DES clock, wall-clock events/s, drain state
//   GET  /status          governor bound, open breakers, shed tokens
//   POST /control/<knob>  enqueue a runtime knob change (body = number)
//
// Threading contract (DESIGN.md §13): the accept thread never touches
// simulation state. GET serves documents the DES thread published earlier
// (publish() swaps whole strings under a mutex), and POST runs a
// caller-installed handler that only parses/validates and posts into a
// control::DirectiveMailbox — mutation happens later, on the DES thread,
// at an ops-poll boundary. The server therefore sits entirely outside the
// determinism contract's state: starting it changes no artifact byte.
//
// Wall-clock use is confined to (a) the accept loop's poll() timeout so
// stop() can interrupt a quiet listener and (b) the events/s rate in
// /healthz, which is a wall-clock quantity by definition. Both carry
// reasoned detlint waivers; nothing wall-clock-derived feeds back into the
// simulation.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "src/control/directive.h"
#include "src/obs/http.h"

namespace anyqos::obs {

/// Listener configuration; the defaults bind an ephemeral loopback port.
struct OpsServerOptions {
  /// Dotted-quad address to bind; loopback by default — the ops plane is a
  /// local viewport, not a public service.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (read port()).
  std::uint16_t port = 0;
  /// Requests larger than this are rejected with 413.
  std::size_t max_request_bytes = 64 * 1024;
};

/// What a control handler decided: the HTTP status plus a JSON body.
struct ControlOutcome {
  int status = 200;
  std::string body;
};

/// The ops listener; see the file comment for the threading contract.
class OpsServer {
 public:
  /// Handles POST /control/<knob> on the accept thread. Must be pure
  /// validation plus a mailbox post — never touch simulation state here.
  using ControlHandler =
      std::function<ControlOutcome(const std::string& knob, const std::string& body)>;

  explicit OpsServer(OpsServerOptions options = {});
  /// Stops and joins the accept thread.
  ~OpsServer();

  OpsServer(const OpsServer&) = delete;
  OpsServer& operator=(const OpsServer&) = delete;

  /// Install the POST /control handler. Call before start().
  void set_control_handler(ControlHandler handler);

  /// Binds, listens, and spawns the accept thread. Throws on socket errors
  /// (e.g. the requested port is taken). Call at most once.
  void start();
  /// Signals the accept thread and joins it; idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  /// The bound port (the kernel's choice when options.port was 0). Valid
  /// after start().
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Publishes (replaces) the document served for GET `path`. Thread-safe;
  /// the DES thread calls this at every ops poll.
  void publish(const std::string& path, std::string content_type, std::string body);
  /// Publishes /healthz from the DES clock and event count, deriving
  /// events/s from the wall time elapsed since the previous publish.
  void publish_health(double sim_now, std::uint64_t events_dispatched, bool draining);

  /// Requests answered so far (any status); for end-of-run summaries.
  [[nodiscard]] std::uint64_t requests_served() const { return requests_served_.load(); }

 private:
  struct Document {
    std::string content_type;
    std::string body;
  };

  void serve();                      // accept-thread main loop
  void handle_connection(int fd);    // one read-respond-close exchange
  std::string respond(const HttpRequest& request);

  OpsServerOptions options_;
  ControlHandler control_handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_served_{0};
  mutable std::mutex documents_mutex_;
  std::map<std::string, Document> documents_;
  // /healthz rate state (DES thread only; guarded by documents_mutex_ is
  // unnecessary — publish_health is called from one thread).
  bool health_published_ = false;
  double last_health_wall_s_ = 0.0;
  std::uint64_t last_health_events_ = 0;
};

/// The POST /control/<knob> handler every front end installs: an unknown
/// knob is 404, a body that is not one number or a value outside the knob's
/// domain (control::validate_directive) is 422, and anything else is posted
/// to `mailbox` and answered 200 with the queued directive. Pure validation
/// plus a post, as ControlHandler requires; `mailbox` must outlive the server.
OpsServer::ControlHandler mailbox_control_handler(control::DirectiveMailbox& mailbox);

}  // namespace anyqos::obs
