// Socket-level tests for obs::OpsServer: a real loopback connection per
// exchange, exercising the GET document path, the POST control path, and
// the error statuses. The HTTP parsing itself is covered in http_test.
#include "src/obs/ops_server.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "src/control/directive.h"

namespace anyqos::obs {
namespace {

// One blocking HTTP exchange against 127.0.0.1:port; returns the raw
// response bytes (the server closes the connection after responding).
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
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) {
      break;
    }
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& target) {
  return http_exchange(port, "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
}

std::string post(std::uint16_t port, const std::string& target, const std::string& body) {
  return http_exchange(port, "POST " + target + " HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body);
}

TEST(OpsServer, ServesPublishedDocuments) {
  OpsServer server;  // ephemeral loopback port
  server.start();
  ASSERT_NE(server.port(), 0);

  server.publish("/metrics", "text/plain", "anyqos_up 1\n");
  const std::string response = get(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("anyqos_up 1\n"), std::string::npos);

  // Re-publishing replaces the whole document.
  server.publish("/metrics", "text/plain", "anyqos_up 0\n");
  EXPECT_NE(get(server.port(), "/metrics").find("anyqos_up 0\n"), std::string::npos);

  EXPECT_NE(get(server.port(), "/missing").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_GE(server.requests_served(), 3u);
  server.stop();
}

TEST(OpsServer, IndexListsPublishedPaths) {
  OpsServer server;
  server.start();
  server.publish("/healthz", "application/json", "{}\n");
  server.publish("/status", "application/json", "{}\n");
  const std::string response = get(server.port(), "/");
  EXPECT_NE(response.find("/healthz"), std::string::npos);
  EXPECT_NE(response.find("/status"), std::string::npos);
  server.stop();
}

TEST(OpsServer, HealthEndpointCarriesSimTimeAndDrainState) {
  OpsServer server;
  server.start();
  server.publish_health(123.5, 42, false);
  const std::string response = get(server.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("\"sim_time_s\":123.500000"), std::string::npos);
  EXPECT_NE(response.find("\"events_dispatched\":42"), std::string::npos);
  EXPECT_NE(response.find("\"draining\":false"), std::string::npos);
  server.publish_health(200.0, 99, true);
  EXPECT_NE(get(server.port(), "/healthz").find("\"draining\":true"), std::string::npos);
  server.stop();
}

TEST(OpsServer, ControlPostsRunThroughTheHandler) {
  control::DirectiveMailbox mailbox;
  OpsServer server;
  server.set_control_handler(mailbox_control_handler(mailbox));
  server.start();

  EXPECT_NE(post(server.port(), "/control/shed-budget", "5").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(post(server.port(), "/control/bogus", "5").find("HTTP/1.1 404"),
            std::string::npos);
  const auto drained = mailbox.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].knob, control::Knob::kShedBudget);
  EXPECT_EQ(drained[0].value, 5.0);
  server.stop();
}

TEST(OpsServer, ControlWithoutHandlerIs503) {
  OpsServer server;
  server.start();
  EXPECT_NE(post(server.port(), "/control/shed-budget", "5").find("HTTP/1.1 503"),
            std::string::npos);
  server.stop();
}

TEST(OpsServer, RejectsWrongMethodsAndOversizedRequests) {
  OpsServerOptions options;
  options.max_request_bytes = 512;  // the smallest cap the server accepts
  OpsServer server(options);
  server.start();
  server.publish("/metrics", "text/plain", "x\n");
  // POST off the control path / GET of an unpublished path: 404.
  EXPECT_NE(post(server.port(), "/metrics", "1").find("HTTP/1.1 404"), std::string::npos);
  EXPECT_NE(get(server.port(), "/control/shed-budget").find("HTTP/1.1 404"),
            std::string::npos);
  // Any method beyond GET/POST: 405.
  EXPECT_NE(http_exchange(server.port(), "DELETE /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
                .find("HTTP/1.1 405"),
            std::string::npos);
  // A request head beyond max_request_bytes: 413.
  const std::string padding(1'024, 'x');
  EXPECT_NE(http_exchange(server.port(),
                     "GET /metrics HTTP/1.1\r\nX-Pad: " + padding + "\r\n\r\n")
                .find("HTTP/1.1 413"),
            std::string::npos);
  // Garbage that never parses: 400.
  EXPECT_NE(http_exchange(server.port(), "NOT-HTTP\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
  server.stop();
}

TEST(OpsServer, StopIsIdempotentAndFreesThePort) {
  OpsServer server;
  server.start();
  const std::uint16_t port = server.port();
  server.stop();
  server.stop();  // second stop is a no-op
  EXPECT_FALSE(server.running());
  // The port is free again: a second server can claim it.
  OpsServerOptions options;
  options.port = port;
  OpsServer next(options);
  next.start();
  EXPECT_EQ(next.port(), port);
  next.stop();
}

// mailbox_control_handler's four outcomes, called directly (no socket).
TEST(MailboxControlHandler, UnknownKnobIs404) {
  control::DirectiveMailbox mailbox;
  const ControlOutcome outcome = mailbox_control_handler(mailbox)("warp-factor", "5");
  EXPECT_EQ(outcome.status, 404);
  EXPECT_EQ(outcome.body, "{\"error\":\"unknown knob 'warp-factor'\"}\n");
  EXPECT_EQ(mailbox.posted(), 0u);
}

TEST(MailboxControlHandler, NonNumericBodyIs422) {
  control::DirectiveMailbox mailbox;
  const auto handler = mailbox_control_handler(mailbox);
  for (const std::string body : {"five", "", "5 6"}) {
    const ControlOutcome outcome = handler("shed-budget", body);
    EXPECT_EQ(outcome.status, 422) << body;
    EXPECT_EQ(outcome.body, "{\"error\":\"body must be a single number\"}\n") << body;
  }
  EXPECT_EQ(mailbox.posted(), 0u);
}

TEST(MailboxControlHandler, OutOfDomainValueIs422) {
  control::DirectiveMailbox mailbox;
  const ControlOutcome outcome = mailbox_control_handler(mailbox)("retrial-ceiling", "0");
  EXPECT_EQ(outcome.status, 422);
  const auto error = control::validate_directive(control::Knob::kRetrialCeiling, 0.0);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(outcome.body, "{\"error\":\"" + *error + "\"}\n");
  EXPECT_EQ(mailbox.posted(), 0u);
}

TEST(MailboxControlHandler, ValidDirectiveIsQueued) {
  control::DirectiveMailbox mailbox;
  const ControlOutcome outcome = mailbox_control_handler(mailbox)("shed-budget", " 2.5\n");
  EXPECT_EQ(outcome.status, 200);
  EXPECT_EQ(outcome.body, "{\"queued\":{\"knob\":\"shed-budget\",\"value\":2.5}}\n");
  const auto drained = mailbox.drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].knob, control::Knob::kShedBudget);
  EXPECT_EQ(drained[0].value, 2.5);
}

}  // namespace
}  // namespace anyqos::obs
