// AdminServer HTTP behavior over real loopback sockets: ephemeral-port
// bind, routing, 404/405 handling, Stop() idempotence, and the
// per-connection deadline that keeps a stalled client from blocking others.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "serving/admin_server.h"

namespace ir2 {
namespace serving {
namespace {

// A socket connected to 127.0.0.1:`port`, or -1.
int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One blocking HTTP exchange against 127.0.0.1:`port`; returns the full
// response (status line + headers + body) or "" on connect failure.
std::string HttpGet(int port, const std::string& request_line) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string request = request_line + "\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;  // Server closes after one response.
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(AdminServerTest, ServesMountedHandlersOnEphemeralPort) {
  AdminServer admin;  // Port 0: the kernel picks.
  admin.Handle("/healthz", [](const std::string&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  admin.Handle("/echo", [](const std::string& path) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = "{\"path\":\"" + path + "\"}";
    return response;
  });
  ASSERT_TRUE(admin.Start().ok());
  ASSERT_GT(admin.port(), 0);

  const std::string health =
      HttpGet(admin.port(), "GET /healthz HTTP/1.1");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");

  const std::string echo = HttpGet(admin.port(), "GET /echo HTTP/1.1");
  EXPECT_NE(echo.find("Content-Type: application/json"), std::string::npos);
  EXPECT_EQ(BodyOf(echo), "{\"path\":\"/echo\"}");

  admin.Stop();
}

TEST(AdminServerTest, StripsQueryStringBeforeRouting) {
  AdminServer admin;
  admin.Handle("/metrics", [](const std::string& path) {
    HttpResponse response;
    response.body = path;  // Handler sees the path sans query.
    return response;
  });
  ASSERT_TRUE(admin.Start().ok());
  const std::string response =
      HttpGet(admin.port(), "GET /metrics?format=prom HTTP/1.1");
  EXPECT_EQ(BodyOf(response), "/metrics");
}

TEST(AdminServerTest, UnknownPathIs404) {
  AdminServer admin;
  admin.Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(admin.Start().ok());
  const std::string response =
      HttpGet(admin.port(), "GET /nothing-here HTTP/1.1");
  EXPECT_NE(response.find("HTTP/1.1 404 Not Found"), std::string::npos);
}

TEST(AdminServerTest, NonGetIs405) {
  AdminServer admin;
  admin.Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(admin.Start().ok());
  const std::string response =
      HttpGet(admin.port(), "POST /healthz HTTP/1.1");
  EXPECT_NE(response.find("HTTP/1.1 405 Method Not Allowed"),
            std::string::npos);
}

TEST(AdminServerTest, StopIsIdempotentAndDestructorStops) {
  auto admin = std::make_unique<AdminServer>();
  admin->Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(admin->Start().ok());
  const int port = admin->port();
  admin->Stop();
  admin->Stop();  // Second Stop is a no-op.
  // Socket is gone: a fresh connect must fail.
  EXPECT_EQ(HttpGet(port, "GET /healthz HTTP/1.1"), "");
  admin.reset();  // Destructor after explicit Stop: still fine.
}

// Connections are served one at a time, so each gets a short total
// deadline: a client that connects and stays silent, and one that trickles
// its request a byte at a time, are each dropped once it passes, and a
// /healthz probe queued behind both still answers well within a second.
TEST(AdminServerTest, StalledClientsDoNotBlockHealthz) {
  AdminServer admin;
  admin.Handle("/healthz", [](const std::string&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  ASSERT_TRUE(admin.Start().ok());

  const int silent = Connect(admin.port());
  ASSERT_GE(silent, 0);
  const int trickler = Connect(admin.port());
  ASSERT_GE(trickler, 0);
  std::atomic<bool> stop{false};
  std::thread trickle([trickler, &stop] {
    const std::string request = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
    for (size_t i = 0; i < request.size() && !stop; ++i) {
      if (::send(trickler, &request[i], 1, MSG_NOSIGNAL) != 1) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  const auto start = std::chrono::steady_clock::now();
  const std::string response = HttpGet(admin.port(), "GET /healthz HTTP/1.1");
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  stop = true;
  trickle.join();
  ::close(trickler);
  ::close(silent);
  EXPECT_EQ(BodyOf(response), "ok\n");
  EXPECT_LT(elapsed_ms, 750.0);
}

TEST(AdminServerTest, PortAlreadyTakenFailsStart) {
  AdminServer first;
  first.Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  ASSERT_TRUE(first.Start().ok());

  AdminServer::Options options;
  options.port = first.port();
  AdminServer second(options);
  second.Handle("/healthz", [](const std::string&) {
    return HttpResponse{};
  });
  EXPECT_FALSE(second.Start().ok());
}

}  // namespace
}  // namespace serving
}  // namespace ir2
