// Load generators: a closed loop (one thread and one blocking connection
// per client) and an open loop (one thread driving every connection on a
// fixed arrival schedule).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>

#include "bench.h"
#include "net/net_client.h"

namespace csjbench {

LoopResult RunClosedLoop(uint16_t port,
                         const std::vector<std::vector<Scheduled>>& schedules,
                         double seconds, uint64_t request_base) {
  LoopResult result;
  result.outcomes.resize(schedules.size());
  std::vector<uint64_t> transport_errors(schedules.size(), 0);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < schedules.size(); ++c) {
    clients.emplace_back([&, c] {
      auto client = csj::net::NetClient::Connect("127.0.0.1", port);
      if (client == nullptr) {
        ++transport_errors[c];
        return;
      }
      std::vector<Outcome>& outcomes = result.outcomes[c];
      outcomes.reserve(schedules[c].size());
      for (size_t i = 0; i < schedules[c].size(); ++i) {
        if (Clock::now() >= stop) break;
        Outcome outcome;
        const Clock::time_point sent = Clock::now();
        bool ok = false;
        {
          const Span span("net.call", request_base + c * 1000000 + i + 1);
          ok = client->Call(schedules[c][i].request, &outcome.response);
        }
        outcome.latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - sent)
                .count();
        if (!ok) {
          ++transport_errors[c];
          break;  // a broken stream cannot resynchronize
        }
        outcome.completed = true;
        outcomes.push_back(std::move(outcome));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  result.seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const uint64_t errors : transport_errors) {
    result.transport_errors += errors;
  }
  return result;
}

namespace {

int ConnectNonBlocking(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One open-loop connection: its outbox and response decoder.
struct Connection {
  int fd = -1;
  bool dead = false;
  std::vector<uint8_t> out;
  size_t out_sent = 0;
  csj::net::FrameDecoder decoder;
};

}  // namespace

LoopResult RunOpenLoop(uint16_t port,
                       const std::vector<std::vector<Scheduled>>& schedules,
                       double drain_s, uint64_t request_base,
                       const OpenLoopLimits& limits) {
  LoopResult result;
  result.outcomes.resize(schedules.size());
  std::vector<Connection> connections(schedules.size());
  for (size_t c = 0; c < schedules.size(); ++c) {
    connections[c].fd = ConnectNonBlocking(port);
    connections[c].dead = connections[c].fd < 0;
    if (connections[c].dead) ++result.transport_errors;
    result.outcomes[c].resize(schedules[c].size());
  }

  // The global send order: due time, then connection.
  struct Due {
    int64_t due_ns;
    uint32_t connection;
    uint32_t index;
  };
  std::vector<Due> order;
  for (size_t c = 0; c < schedules.size(); ++c) {
    for (size_t i = 0; i < schedules[c].size(); ++i) {
      order.push_back(Due{static_cast<int64_t>(schedules[c][i].due_s * 1e9),
                          static_cast<uint32_t>(c), static_cast<uint32_t>(i)});
    }
  }
  std::sort(order.begin(), order.end(), [](const Due& x, const Due& y) {
    if (x.due_ns != y.due_ns) return x.due_ns < y.due_ns;
    return x.connection < y.connection;
  });

  const int64_t start_ns = NowNs();
  const auto elapsed_ns = [&] { return NowNs() - start_ns; };
  const int64_t send_until_ns =
      limits.send_seconds > 0.0
          ? static_cast<int64_t>(limits.send_seconds * 1e9)
          : INT64_MAX;
  const uint64_t window =
      limits.max_outstanding > 0 ? limits.max_outstanding : UINT64_MAX;
  std::vector<size_t> sent(connections.size(), 0);
  size_t next = 0;
  uint64_t outstanding = 0;
  int64_t last_send_ns = 0;
  std::vector<pollfd> fds(connections.size());
  std::vector<uint8_t> buffer(256 * 1024);

  const auto kill = [&](Connection& connection) {
    if (connection.dead) return;
    connection.dead = true;
    ++result.transport_errors;
  };

  while (true) {
    int64_t now = elapsed_ns();
    // Past the send cutoff the rest of the schedule is dropped unsent.
    if (now >= send_until_ns) next = order.size();
    while (next < order.size() && order[next].due_ns <= now &&
           outstanding < window) {
      const Due& due = order[next++];
      Connection& connection = connections[due.connection];
      if (connection.dead) continue;
      csj::net::EncodeRequestFrame(due.index + 1,
                                   schedules[due.connection][due.index].request,
                                   &connection.out);
      result.outcomes[due.connection][due.index].lateness_ms =
          static_cast<double>(now - due.due_ns) / 1e6;
      sent[due.connection] = std::max<size_t>(sent[due.connection],
                                              due.index + 1);
      ++outstanding;
      last_send_ns = now;
    }
    for (Connection& connection : connections) {
      while (!connection.dead && connection.out_sent < connection.out.size()) {
        const ssize_t n =
            ::send(connection.fd, connection.out.data() + connection.out_sent,
                   connection.out.size() - connection.out_sent, MSG_NOSIGNAL);
        if (n > 0) {
          connection.out_sent += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          kill(connection);
        }
      }
      if (connection.out_sent == connection.out.size()) {
        connection.out.clear();
        connection.out_sent = 0;
      }
    }

    now = elapsed_ns();
    if (next == order.size() &&
        (outstanding == 0 ||
         now - last_send_ns > static_cast<int64_t>(drain_s * 1e9))) {
      break;
    }
    // A full window waits for a response; ppoll wakes on it.
    const int64_t wait_ns =
        next < order.size()
            ? (outstanding >= window
                   ? std::max<int64_t>(0, send_until_ns - now)
                   : std::max<int64_t>(0, order[next].due_ns - now))
            : static_cast<int64_t>(drain_s * 1e9) - (now - last_send_ns);
    for (size_t c = 0; c < connections.size(); ++c) {
      fds[c].fd = connections[c].dead ? -1 : connections[c].fd;
      fds[c].events = static_cast<short>(
          POLLIN | (connections[c].out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;

    for (size_t c = 0; c < connections.size(); ++c) {
      Connection& connection = connections[c];
      if (connection.dead || (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      while (true) {
        const ssize_t n = ::recv(connection.fd, buffer.data(), buffer.size(), 0);
        if (n > 0) {
          connection.decoder.Feed(buffer.data(), static_cast<size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        kill(connection);  // EOF or error: the server dropped us
        break;
      }
      const int64_t done_ns = elapsed_ns();
      while (true) {
        csj::net::DecodedFrame frame;
        const csj::net::WireStatus status = connection.decoder.Next(&frame);
        if (status == csj::net::WireStatus::kNeedMore) break;
        if (status != csj::net::WireStatus::kOk ||
            frame.type != csj::net::FrameType::kResponse ||
            frame.request_id == 0 ||
            frame.request_id > schedules[c].size()) {
          kill(connection);
          break;
        }
        const uint32_t index = frame.request_id - 1;
        Outcome& outcome = result.outcomes[c][index];
        if (outcome.completed) {
          kill(connection);  // a duplicate response id
          break;
        }
        const int64_t due_ns =
            static_cast<int64_t>(schedules[c][index].due_s * 1e9);
        outcome.completed = true;
        outcome.latency_ms = static_cast<double>(done_ns - due_ns) / 1e6;
        outcome.response = std::move(frame.response);
        Tracer::Record("net.open_loop_request",
                       request_base + c * 1000000 + index + 1,
                       start_ns + due_ns, start_ns + done_ns);
        --outstanding;
      }
    }
  }
  result.seconds = static_cast<double>(elapsed_ns()) / 1e9;
  for (Connection& connection : connections) {
    if (connection.fd >= 0) ::close(connection.fd);
  }
  // Requests never sent are not part of the run.
  for (size_t c = 0; c < connections.size(); ++c) {
    result.outcomes[c].resize(sent[c]);
  }
  return result;
}

}  // namespace csjbench
