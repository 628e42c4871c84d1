#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace shmd::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

NetClient::~NetClient() { close(); }

void NetClient::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void NetClient::connect(const util::Endpoint& endpoint) {
  if (fd_ >= 0) throw std::runtime_error("NetClient::connect: already connected");
  int fd = -1;
  if (endpoint.kind == util::Endpoint::Kind::kUnix) {
    sockaddr_un sun{};
    if (endpoint.path.size() >= sizeof(sun.sun_path)) {
      throw std::runtime_error("NetClient: unix socket path too long: " + endpoint.path);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error(errno_text("NetClient: socket(AF_UNIX)"));
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, endpoint.path.c_str(), endpoint.path.size());
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sun), sizeof(sun)) != 0) {
      const std::string msg = errno_text("NetClient: connect()");
      ::close(fd);
      throw std::runtime_error(msg + " to " + endpoint.to_string());
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error(errno_text("NetClient: socket(AF_INET)"));
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_port = htons(endpoint.port);
    const std::string host =
        (endpoint.host.empty() || endpoint.host == "*" || endpoint.host == "localhost")
            ? "127.0.0.1"
            : endpoint.host;
    if (::inet_pton(AF_INET, host.c_str(), &sin.sin_addr) != 1) {
      ::close(fd);
      throw std::runtime_error("NetClient: cannot resolve host '" + endpoint.host +
                               "' (numeric IPv4 or \"localhost\" only — no DNS)");
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&sin), sizeof(sin)) != 0) {
      const std::string msg = errno_text("NetClient: connect()");
      ::close(fd);
      throw std::runtime_error(msg + " to " + endpoint.to_string());
    }
    const int one = 1;  // request/reply traffic wants latency, not batching
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  fd_ = fd;
  apply_recv_deadline();
}

void NetClient::set_recv_deadline(std::chrono::milliseconds timeout) {
  if (timeout.count() < 0) {
    throw std::invalid_argument("NetClient::set_recv_deadline: negative timeout");
  }
  recv_deadline_ = timeout;
  if (fd_ >= 0) apply_recv_deadline();
}

void NetClient::apply_recv_deadline() {
  // SO_RCVTIMEO: the kernel bounds each blocking recv(); an expiry
  // surfaces as EAGAIN, which read_frame() turns into
  // RecvDeadlineExpired. A zero timeval restores wait-forever.
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(recv_deadline_.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((recv_deadline_.count() % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    throw std::runtime_error(errno_text("NetClient: setsockopt(SO_RCVTIMEO)"));
  }
}

void NetClient::send_frame(FrameType type, std::uint64_t request_id,
                           std::span<const std::uint8_t> payload) {
  send_buf_.clear();
  append_frame(type, request_id, payload, send_buf_);
  send_buffered();
}

void NetClient::send_buffered() {
  if (fd_ < 0) throw std::runtime_error("NetClient: not connected");
  std::size_t at = 0;
  while (at < send_buf_.size()) {
    const ssize_t n =
        ::send(fd_, send_buf_.data() + at, send_buf_.size() - at, MSG_NOSIGNAL);
    if (n > 0) {
      at += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    throw std::runtime_error(errno_text("NetClient: send()"));
  }
}

Frame NetClient::read_frame() {
  if (fd_ < 0) throw std::runtime_error("NetClient: not connected");
  while (true) {
    if (std::optional<Frame> frame = decoder_.next()) return std::move(*frame);
    if (decoder_.failed()) {
      throw std::runtime_error("NetClient: protocol error from server: " + decoder_.error());
    }
    std::uint8_t buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) throw std::runtime_error("NetClient: connection closed by server");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) throw RecvDeadlineExpired();
      throw std::runtime_error(errno_text("NetClient: recv()"));
    }
    decoder_.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
  }
}

Reply NetClient::to_reply(Frame frame) {
  Reply reply;
  reply.request_id = frame.request_id;
  reply.type = frame.type;
  if (frame.type == FrameType::kScoreResult) {
    reply.result = decode_score_result(frame.payload);
    if (!reply.result.has_value()) {
      throw std::runtime_error("NetClient: malformed ScoreResult payload");
    }
  } else if (frame.type == FrameType::kVerdictResult) {
    reply.verdict = decode_verdict_result(frame.payload);
    if (!reply.verdict.has_value()) {
      throw std::runtime_error("NetClient: malformed VerdictResult payload");
    }
  } else if (frame.type == FrameType::kError) {
    reply.error = decode_error(frame.payload);
    if (!reply.error.has_value()) {
      throw std::runtime_error("NetClient: malformed Error payload");
    }
  }
  reply.payload = std::move(frame.payload);
  return reply;
}

Reply NetClient::score(const ScoreRequest& request) {
  const std::uint64_t id = send_score(request);
  Reply reply = recv_reply();
  if (reply.request_id != id) {
    throw std::runtime_error("NetClient: out-of-order reply in synchronous mode");
  }
  return reply;
}

bool NetClient::ping() {
  const std::uint64_t id = next_id_++;
  const std::vector<std::uint8_t> probe = {0x5A, 0xA5};
  send_frame(FrameType::kPing, id, probe);
  const Reply reply = to_reply(read_frame());
  return reply.type == FrameType::kPong && reply.request_id == id && reply.payload == probe;
}

std::optional<serve::ServiceStatsSnapshot> NetClient::stats() {
  const std::uint64_t id = next_id_++;
  send_frame(FrameType::kStats, id, {});
  const Reply reply = to_reply(read_frame());
  if (reply.type != FrameType::kStatsResult || reply.request_id != id) return std::nullopt;
  return serve::deserialize_snapshot(reply.payload);
}

std::uint64_t NetClient::send_score(const ScoreRequest& request) {
  return send_request(FrameType::kScore, request);
}

std::uint64_t NetClient::send_verdict(const ScoreRequest& request) {
  return send_request(FrameType::kVerdict, request);
}

std::uint64_t NetClient::send_request(FrameType type, const ScoreRequest& request) {
  const std::uint64_t id = next_id_++;
  send_buf_.clear();
  append_score_request(type, id, request, send_buf_);
  send_buffered();
  return id;
}

Reply NetClient::recv_reply() { return to_reply(read_frame()); }

}  // namespace shmd::net
