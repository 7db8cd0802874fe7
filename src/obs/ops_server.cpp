#include "src/obs/ops_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>

#include "src/util/annotations.h"
#include "src/util/json.h"
#include "src/util/require.h"
#include "src/util/strings.h"

namespace anyqos::obs {

namespace {

// A peer that disconnects mid-write would otherwise kill the process with
// SIGPIPE; every send() also passes MSG_NOSIGNAL, this is belt-and-braces
// for platforms where that flag is advisory. Signal disposition is
// process-global by nature, hence the one-time guard.
ANYQOS_DETLINT_ALLOW(global_state, "SIGPIPE disposition is process-global by nature: set once, never read, no effect on model state");
std::once_flag sigpipe_once;

void ignore_sigpipe() {
  std::call_once(sigpipe_once, [] { (void)std::signal(SIGPIPE, SIG_IGN); });
}

// Wall-clock seconds for the /healthz events/s rate. This is the ops
// plane's only clock read and it never feeds back into the simulation.
double wall_seconds() {
  ANYQOS_DETLINT_ALLOW(wall_clock, "events/s in /healthz is wall-clock by definition; the value never reaches model state");
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(now.time_since_epoch()).count();
}

// Accept-loop poll timeout: how stale a stop() request may go unnoticed.
constexpr int kPollTimeoutMs = 50;
// Per-connection inactivity budget before the server gives up on a peer.
constexpr int kConnectionIdleMs = 2'000;

std::string json_error(std::string_view message) {
  std::string out = "{\"error\":\"";
  out += util::json_escape(message);
  out += "\"}\n";
  return out;
}

void send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      return;  // peer went away; nothing useful to do with a half-sent reply
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

OpsServer::OpsServer(OpsServerOptions options) : options_(std::move(options)) {
  util::require(options_.max_request_bytes >= 512,
                "ops server request cap must be at least 512 bytes");
}

OpsServer::~OpsServer() { stop(); }

void OpsServer::set_control_handler(ControlHandler handler) {
  util::require(!running_.load(), "install the control handler before start()");
  control_handler_ = std::move(handler);
}

void OpsServer::start() {
  util::require(listen_fd_ < 0, "ops server already started");
  ignore_sigpipe();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  util::require(listen_fd_ >= 0, "ops server: socket() failed");
  const int enable = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &address.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    util::require(false, "ops server: bad bind address '" + options_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    util::require(false, "ops server: cannot listen on " + options_.bind_address + ":" +
                             std::to_string(options_.port) + " (" + detail + ")");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  util::require(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0,
                "ops server: getsockname() failed");
  port_ = ntohs(bound.sin_port);
  stop_.store(false);
  running_.store(true);
  thread_ = std::thread([this] { serve(); });
}

void OpsServer::stop() {
  stop_.store(true);
  if (thread_.joinable()) {
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false);
}

void OpsServer::serve() {
  while (!stop_.load()) {
    pollfd waiter{};
    waiter.fd = listen_fd_;
    waiter.events = POLLIN;
    const int ready = ::poll(&waiter, 1, kPollTimeoutMs);
    if (ready <= 0) {
      continue;  // timeout (re-check stop_) or a benign EINTR
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    // Connections are handled serially on this one thread: the ops plane is
    // a low-rate viewport, and a single thread keeps the locking story (one
    // producer, one consumer per shared structure) trivially auditable.
    handle_connection(fd);
    ::close(fd);
  }
}

void OpsServer::handle_connection(int fd) {
  std::string buffer;
  std::size_t head_end = std::string::npos;
  std::size_t head_skip = 0;
  int idle_budget_ms = kConnectionIdleMs;
  std::optional<HttpRequest> request;
  std::size_t body_needed = 0;
  while (true) {
    if (head_end == std::string::npos) {
      head_end = buffer.find("\r\n\r\n");
      head_skip = 4;
      if (head_end == std::string::npos) {
        head_end = buffer.find("\n\n");
        head_skip = 2;
      }
      if (head_end != std::string::npos) {
        if (head_end > options_.max_request_bytes) {
          send_all(fd, render_response(413, "application/json",
                                       json_error("request too large")));
          return;
        }
        request = parse_request_head(std::string_view(buffer).substr(0, head_end));
        if (!request.has_value()) {
          send_all(fd, render_response(400, "application/json",
                                       json_error("malformed request head")));
          return;
        }
        const std::optional<std::size_t> length = content_length(*request);
        if (!length.has_value()) {
          send_all(fd, render_response(400, "application/json",
                                       json_error("bad Content-Length")));
          return;
        }
        body_needed = *length;
        if (body_needed > options_.max_request_bytes) {
          send_all(fd, render_response(413, "application/json",
                                       json_error("request body too large")));
          return;
        }
      }
    }
    if (request.has_value() && buffer.size() >= head_end + head_skip + body_needed) {
      request->body = buffer.substr(head_end + head_skip, body_needed);
      break;
    }
    if (buffer.size() > options_.max_request_bytes) {
      send_all(fd, render_response(413, "application/json", json_error("request too large")));
      return;
    }
    pollfd waiter{};
    waiter.fd = fd;
    waiter.events = POLLIN;
    const int ready = ::poll(&waiter, 1, kPollTimeoutMs);
    if (stop_.load()) {
      return;  // shutting down: abandon the half-read request
    }
    if (ready == 0) {
      idle_budget_ms -= kPollTimeoutMs;
      if (idle_budget_ms <= 0) {
        return;  // peer stalled mid-request
      }
      continue;
    }
    if (ready < 0) {
      continue;  // EINTR
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      return;  // peer closed before completing a request
    }
    idle_budget_ms = kConnectionIdleMs;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  send_all(fd, respond(*request));
  requests_served_.fetch_add(1);
}

std::string OpsServer::respond(const HttpRequest& request) {
  if (request.method == "GET") {
    if (request.target == "/") {
      // A tiny index so curl without a path shows what is scrapeable.
      std::string body = "anyqos ops plane\n\nGET endpoints:\n";
      {
        const std::lock_guard<std::mutex> lock(documents_mutex_);
        for (const auto& [path, document] : documents_) {
          body += "  ";
          body += path;
          body += '\n';
        }
      }
      body += "\nPOST /control/<knob> with a numeric body to steer the governor.\n";
      return render_response(200, "text/plain; charset=utf-8", body);
    }
    const std::lock_guard<std::mutex> lock(documents_mutex_);
    const auto it = documents_.find(request.target);
    if (it == documents_.end()) {
      return render_response(404, "application/json",
                             json_error("no document at " + request.target));
    }
    return render_response(200, it->second.content_type, it->second.body);
  }
  if (request.method == "POST") {
    const std::string prefix = "/control/";
    if (!util::starts_with(request.target, prefix)) {
      return render_response(404, "application/json",
                             json_error("POST targets /control/<knob>"));
    }
    if (!control_handler_) {
      return render_response(503, "application/json",
                             json_error("control plane not wired (scrape-only server)"));
    }
    const ControlOutcome outcome =
        control_handler_(request.target.substr(prefix.size()), request.body);
    return render_response(outcome.status, "application/json", outcome.body);
  }
  return render_response(405, "application/json", json_error("method not allowed"));
}

void OpsServer::publish(const std::string& path, std::string content_type, std::string body) {
  util::require(!path.empty() && path.front() == '/', "published paths start with '/'");
  const std::lock_guard<std::mutex> lock(documents_mutex_);
  Document& document = documents_[path];
  document.content_type = std::move(content_type);
  document.body = std::move(body);
}

void OpsServer::publish_health(double sim_now, std::uint64_t events_dispatched,
                               bool draining) {
  const double wall_now = wall_seconds();
  double events_per_s = 0.0;
  if (health_published_ && wall_now > last_health_wall_s_ &&
      events_dispatched >= last_health_events_) {
    events_per_s = static_cast<double>(events_dispatched - last_health_events_) /
                   (wall_now - last_health_wall_s_);
  }
  health_published_ = true;
  last_health_wall_s_ = wall_now;
  last_health_events_ = events_dispatched;
  std::string body = "{\"status\":\"ok\",\"sim_time_s\":";
  body += util::format_fixed(sim_now, 6);
  body += ",\"events_dispatched\":";
  body += std::to_string(events_dispatched);
  body += ",\"events_per_s\":";
  body += util::format_fixed(events_per_s, 1);
  body += ",\"draining\":";
  body += draining ? "true" : "false";
  body += "}\n";
  publish("/healthz", "application/json", std::move(body));
}

OpsServer::ControlHandler mailbox_control_handler(control::DirectiveMailbox& mailbox) {
  return [&mailbox](const std::string& knob_name, const std::string& body) {
    ControlOutcome outcome;
    const std::optional<control::Knob> knob = control::parse_knob(knob_name);
    if (!knob.has_value()) {
      outcome.status = 404;
      outcome.body = "{\"error\":\"unknown knob '" + util::json_escape(knob_name) + "'\"}\n";
      return outcome;
    }
    const std::optional<double> value = util::parse_double(util::trim(body));
    if (!value.has_value()) {
      outcome.status = 422;
      outcome.body = "{\"error\":\"body must be a single number\"}\n";
      return outcome;
    }
    if (const auto error = control::validate_directive(*knob, *value)) {
      outcome.status = 422;
      outcome.body = "{\"error\":\"" + util::json_escape(*error) + "\"}\n";
      return outcome;
    }
    mailbox.post({*knob, *value});
    outcome.body = "{\"queued\":{\"knob\":\"" + control::to_string(*knob) +
                   "\",\"value\":" + util::json_number(*value) + "}}\n";
    return outcome;
  };
}

}  // namespace anyqos::obs
