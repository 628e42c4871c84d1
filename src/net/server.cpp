#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "admit/token_bucket.hpp"
#include "trace/features.hpp"

namespace shmd::net {

namespace {

std::string errno_text(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

// Raise a high-water mark; the reactor is its only writer.
void raise_peak(std::atomic<std::uint64_t>& peak, std::uint64_t value) noexcept {
  if (value > peak.load(std::memory_order_relaxed)) peak.store(value, std::memory_order_relaxed);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(errno_text("fcntl(O_NONBLOCK)"));
  }
}

in_addr_t resolve_ipv4(const std::string& host) {
  if (host.empty() || host == "*") return htonl(INADDR_ANY);
  if (host == "localhost") return htonl(INADDR_LOOPBACK);
  in_addr addr{};
  if (::inet_pton(AF_INET, host.c_str(), &addr) == 1) return addr.s_addr;
  throw std::runtime_error("NetServer: cannot resolve host '" + host +
                           "' (numeric IPv4, \"localhost\", or \"*\" only — no DNS)");
}

}  // namespace

// -- Poller -----------------------------------------------------------------

/// Readiness multiplexer: epoll where available, poll() everywhere. Both
/// backends present identical semantics so the reactor is backend-blind
/// and the test suite can force the fallback (NetServerConfig::force_poll).
class NetServer::Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
  };

  explicit Poller(bool force_poll) {
#ifdef __linux__
    if (!force_poll) epfd_ = ::epoll_create1(EPOLL_CLOEXEC);  // < 0 => poll() fallback
#else
    (void)force_poll;
#endif
  }

  ~Poller() {
    if (epfd_ >= 0) ::close(epfd_);
  }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  /// Add-or-update interest for `fd`. Returns false if the kernel refused
  /// the registration (e.g. EPOLL_CTL_ADD hitting the epoll watch limit):
  /// an unregistered fd would never be polled again, so the caller must
  /// close it rather than leave the connection hanging silently.
  [[nodiscard]] bool set(int fd, bool read, bool write) {
    const short mask = static_cast<short>((read ? 1 : 0) | (write ? 2 : 0));
    const auto it = interest_.find(fd);
    if (it != interest_.end() && it->second == mask) return true;  // no syscall
#ifdef __linux__
    if (epfd_ >= 0) {
      epoll_event ev{};
      ev.events = (read ? static_cast<std::uint32_t>(EPOLLIN) : 0u) |
                  (write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
      ev.data.fd = fd;
      if (::epoll_ctl(epfd_, it == interest_.end() ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd,
                      &ev) != 0) {
        return false;
      }
    }
#endif
    if (it == interest_.end()) {
      interest_.emplace(fd, mask);
    } else {
      it->second = mask;
    }
    return true;
  }

  void remove(int fd) {
#ifdef __linux__
    if (epfd_ >= 0) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
    interest_.erase(fd);
  }

  const std::vector<Event>& wait(int timeout_ms) {
    events_.clear();
#ifdef __linux__
    if (epfd_ >= 0) {
      epoll_event raw[64];
      const int n = ::epoll_wait(epfd_, raw, 64, timeout_ms);
      for (int i = 0; i < n; ++i) {
        Event ev;
        ev.fd = raw[i].data.fd;
        ev.readable = (raw[i].events & EPOLLIN) != 0;
        ev.writable = (raw[i].events & EPOLLOUT) != 0;
        ev.hangup = (raw[i].events & (EPOLLHUP | EPOLLERR)) != 0;
        events_.push_back(ev);
      }
      return events_;
    }
#endif
    pollfds_.clear();
    for (const auto& [fd, mask] : interest_) {
      pollfd p{};
      p.fd = fd;
      p.events = static_cast<short>(((mask & 1) != 0 ? POLLIN : 0) |
                                    ((mask & 2) != 0 ? POLLOUT : 0));
      pollfds_.push_back(p);
    }
    const int n = ::poll(pollfds_.data(), pollfds_.size(), timeout_ms);
    if (n > 0) {
      for (const pollfd& p : pollfds_) {
        if (p.revents == 0) continue;
        Event ev;
        ev.fd = p.fd;
        ev.readable = (p.revents & POLLIN) != 0;
        ev.writable = (p.revents & POLLOUT) != 0;
        ev.hangup = (p.revents & (POLLHUP | POLLERR | POLLNVAL)) != 0;
        events_.push_back(ev);
      }
    }
    return events_;
  }

 private:
  int epfd_ = -1;
  std::unordered_map<int, short> interest_;
  std::vector<Event> events_;
  std::vector<pollfd> pollfds_;
};

// -- reactor-owned per-connection / per-request state -----------------------

struct NetServer::Connection {
  explicit Connection(const NetServerConfig& config)
      : decoder(config.max_payload), bucket(config.throttle_rps, config.throttle_burst) {}

  std::uint64_t id = 0;
  int fd = -1;
  FrameDecoder decoder;
  /// Fair-share limiter: one token per scoring request. Reactor-owned
  /// like everything else here, so no synchronization.
  admit::TokenBucket bucket;
  std::uint64_t throttled = 0;    ///< kThrottled frames sent on this connection
  std::vector<std::uint8_t> out;  ///< encoded frames awaiting the socket
  std::size_t out_at = 0;         ///< written prefix of `out`
  bool reads_paused = false;      ///< backpressure: write buffer over limit
  bool close_after_flush = false;  ///< protocol error: drain out, then die
  bool dead = false;               ///< fatal I/O error or peer EOF observed
  bool trusted = true;             ///< inherited from the accepting listener
  bool flush_queued = false;       ///< already on to_flush_ for this drain
};

/// One in-flight score: owns the ticket and the feature set for exactly as
/// long as the service contract requires (submission -> completion). Heap-
/// allocated and never moved, because ScoreTicket is address-stable by
/// design. If the client disconnects mid-score, conn_id is zeroed and the
/// completion is discarded on arrival — the ticket still completes, so the
/// service's accounting stays exact.
struct NetServer::Pending {
  NetServer* server = nullptr;
  std::uint64_t key = 0;      ///< reactor-assigned; mailbox token
  std::uint64_t conn_id = 0;  ///< 0 = orphaned (connection died first)
  std::uint64_t request_id = 0;
  bool decision_only = false;  ///< kVerdict request: reply without scores
  trace::FeatureSet features;
  serve::ScoreTicket ticket;
};

// -- lifecycle --------------------------------------------------------------

NetServer::NetServer(serve::ScoringService& service, NetServerConfig config)
    : service_(service),
      config_(config),
      poller_(std::make_unique<Poller>(config.force_poll)) {
  if (::pipe(wake_fds_) != 0) throw std::runtime_error(errno_text("NetServer: pipe()"));
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
  // Reserved fd released to accept-and-close under EMFILE/ENFILE (see
  // handle_accept); best-effort — -1 just disables the shed path.
  spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

NetServer::~NetServer() {
  stop();
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
  if (spare_fd_ >= 0) ::close(spare_fd_);
}

util::Endpoint NetServer::add_listener(const util::Endpoint& endpoint, bool trusted) {
  if (started_) throw std::runtime_error("NetServer::add_listener: server already started");
  int fd = -1;
  util::Endpoint resolved = endpoint;
  if (endpoint.kind == util::Endpoint::Kind::kUnix) {
    sockaddr_un sun{};
    if (endpoint.path.size() >= sizeof(sun.sun_path)) {
      throw std::runtime_error("NetServer: unix socket path too long: " + endpoint.path);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error(errno_text("NetServer: socket(AF_UNIX)"));
    ::unlink(endpoint.path.c_str());  // stale socket from a crashed predecessor
    sun.sun_family = AF_UNIX;
    std::memcpy(sun.sun_path, endpoint.path.c_str(), endpoint.path.size());
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sun), sizeof(sun)) != 0) {
      const std::string msg = errno_text("NetServer: bind()");
      ::close(fd);
      throw std::runtime_error(msg + " on " + endpoint.to_string());
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error(errno_text("NetServer: socket(AF_INET)"));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sin{};
    sin.sin_family = AF_INET;
    sin.sin_addr.s_addr = resolve_ipv4(endpoint.host);
    sin.sin_port = htons(endpoint.port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&sin), sizeof(sin)) != 0) {
      const std::string msg = errno_text("NetServer: bind()");
      ::close(fd);
      throw std::runtime_error(msg + " on " + endpoint.to_string());
    }
    if (endpoint.port == 0) {  // report the kernel-assigned ephemeral port
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        resolved.port = ntohs(bound.sin_port);
      }
    }
  }
  if (::listen(fd, 128) != 0) {
    const std::string msg = errno_text("NetServer: listen()");
    ::close(fd);
    throw std::runtime_error(msg + " on " + endpoint.to_string());
  }
  set_nonblocking(fd);
  listeners_.push_back(Listener{fd, resolved, trusted});
  return resolved;
}

void NetServer::start() {
  if (started_) throw std::runtime_error("NetServer::start: already started");
  if (listeners_.empty()) {
    throw std::runtime_error("NetServer::start: no listeners (call add_listener first)");
  }
  if (!poller_->set(wake_fds_[0], /*read=*/true, /*write=*/false)) {
    throw std::runtime_error("NetServer::start: cannot register wake pipe with poller");
  }
  for (const Listener& listener : listeners_) {
    if (!poller_->set(listener.fd, /*read=*/true, /*write=*/false)) {
      throw std::runtime_error("NetServer::start: cannot register listener with poller");
    }
  }
  started_ = true;
  reactor_ = std::thread([this] { event_loop(); });
}

void NetServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (reactor_.joinable()) {
    wake();
    reactor_.join();
  }
  // A completing worker may still be inside score_complete_hook (between
  // its mailbox push and its last read of `this`); outlive it.
  while (hooks_in_flight_.load(std::memory_order_acquire) != 0) std::this_thread::yield();
  for (Listener& listener : listeners_) {
    if (listener.fd >= 0) {  // reactor never started; close here instead
      ::close(listener.fd);
      listener.fd = -1;
    }
    if (listener.endpoint.kind == util::Endpoint::Kind::kUnix) {
      ::unlink(listener.endpoint.path.c_str());
    }
  }
}

NetServerStats NetServer::stats() const {
  NetServerStats s;
  stats_.load_into(s);
  return s;
}

// -- reactor ----------------------------------------------------------------

void NetServer::wake() noexcept {
  stats_.at<&NetServerStats::wakeups>().fetch_add(1, std::memory_order_relaxed);
  const char byte = 1;
  // EAGAIN means a wake is already pending — exactly what we want.
  (void)!::write(wake_fds_[1], &byte, 1);
}

NetServer::Connection* NetServer::find_conn(std::uint64_t conn_id) noexcept {
  const auto it = conns_.find(conn_id);
  return it == conns_.end() ? nullptr : it->second.get();
}

void NetServer::event_loop() {
  bool listeners_closed = false;
  while (true) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    if (stopping && !listeners_closed) {
      for (Listener& listener : listeners_) {
        if (listener.fd >= 0) {
          poller_->remove(listener.fd);
          ::close(listener.fd);
          listener.fd = -1;
        }
      }
      listeners_closed = true;
    }
    drain_completions();
    // Every accepted ticket is completed by the service (drain semantics),
    // so this empties and the loop exits without dropping a reply.
    if (stopping && pending_.empty()) break;

    // Idle, the reactor sleeps until an fd is ready: completions and stop()
    // wake it through the pipe, so there is no timeout to hide a lost wake.
    const auto& events = poller_->wait(stopping ? 20 : -1);
    for (const Poller::Event& ev : events) {
      if (ev.fd == wake_fds_[0]) {
        char buf[256];
        while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      bool is_listener = false;
      for (const Listener& listener : listeners_) {
        if (listener.fd == ev.fd) {
          is_listener = true;
          break;
        }
      }
      if (is_listener) {
        handle_accept(ev.fd);
        continue;
      }
      const auto it = conn_by_fd_.find(ev.fd);
      if (it == conn_by_fd_.end()) continue;  // closed earlier in this batch
      const std::uint64_t cid = it->second;
      if (ev.writable) {
        if (Connection* conn = find_conn(cid); conn != nullptr && !flush(*conn)) {
          close_connection(cid);
        }
      }
      if (ev.readable) {
        if (Connection* conn = find_conn(cid)) handle_readable(*conn);
      }
      if (ev.hangup && find_conn(cid) != nullptr) close_connection(cid);
    }
  }
  // Teardown: best-effort final flush, then close everything.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) ids.push_back(id);
  for (const std::uint64_t id : ids) {
    if (Connection* conn = find_conn(id)) (void)flush(*conn);
    close_connection(id);
  }
}

void NetServer::handle_accept(int listen_fd) {
  bool trusted = true;
  for (const Listener& listener : listeners_) {
    if (listener.fd == listen_fd) {
      trusted = listener.trusted;
      break;
    }
  }
  while (true) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd exhaustion: the pending connection stays in the backlog, so
        // with a level-triggered poller the listener stays readable and
        // the reactor would busy-spin. Release the reserved spare fd,
        // accept-and-close the head of the backlog, then re-reserve.
        if (spare_fd_ >= 0) {
          ::close(spare_fd_);
          spare_fd_ = -1;
          const int victim = ::accept(listen_fd, nullptr, nullptr);
          if (victim >= 0) ::close(victim);
          spare_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
          stats_.at<&NetServerStats::accept_overflow>().fetch_add(1, std::memory_order_relaxed);
          if (victim >= 0 && spare_fd_ >= 0) continue;  // keep draining the backlog
        }
      }
      break;  // EAGAIN, or a transient error — the poller will re-arm us
    }
    try {
      set_nonblocking(fd);
    } catch (const std::runtime_error&) {
      ::close(fd);
      continue;
    }
    const int one = 1;  // latency over batching; a no-op (error) on AF_UNIX
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(config_);
    const std::uint64_t conn_id = next_conn_id_++;
    conn->id = conn_id;
    conn->fd = fd;
    conn->trusted = trusted;
    conn_by_fd_[fd] = conn_id;
    conns_.emplace(conn_id, std::move(conn));
    stats_.at<&NetServerStats::accepted_connections>().fetch_add(1, std::memory_order_relaxed);
    if (!poller_->set(fd, /*read=*/true, /*write=*/false)) {
      // Registration refused (epoll watch limit): an unmonitored socket
      // would hang forever; close it so the client sees a clean reset.
      stats_.at<&NetServerStats::accept_overflow>().fetch_add(1, std::memory_order_relaxed);
      close_connection(conn_id);
    }
  }
}

void NetServer::handle_readable(Connection& conn) {
  std::uint8_t buf[64 * 1024];
  while (!conn.dead && !conn.reads_paused && !conn.close_after_flush) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n == 0) {  // orderly peer close
      conn.dead = true;
      break;
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) conn.dead = true;
      break;
    }
    conn.decoder.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    while (std::optional<Frame> frame = conn.decoder.next()) {
      handle_frame(conn, std::move(*frame));
      if (conn.close_after_flush) break;
    }
    if (conn.decoder.failed() && !conn.close_after_flush) {
      // Framing garbage: the one offense that costs the connection.
      stats_.at<&NetServerStats::protocol_errors>().fetch_add(1, std::memory_order_relaxed);
      conn.close_after_flush = true;
      send_error(conn, 0, ErrorCode::kBadFrame, conn.decoder.error());
    }
    // One batch per read: every inline reply it produced leaves in one
    // flush, which also re-evaluates the read pause before the next recv.
    (void)flush(conn);  // false <=> conn.dead, which ends the loop
  }
  if (conn.dead) close_connection(conn.id);
}

void NetServer::handle_frame(Connection& conn, Frame frame) {
  stats_.at<&NetServerStats::frames_in>().fetch_add(1, std::memory_order_relaxed);
  switch (frame.type) {
    case FrameType::kPing:
      send_frame(conn, FrameType::kPong, frame.request_id, frame.payload);
      break;
    case FrameType::kScore:
      if (!config_.allow_raw_scores && !conn.trusted) {
        // Policy refusal, not a protocol error: the connection stays up
        // and may keep querying through the decision-only channel.
        send_error(conn, frame.request_id, ErrorCode::kUnsupported,
                   "raw scores disabled for untrusted endpoints; use kVerdict");
        break;
      }
      handle_score(conn, frame, /*decision_only=*/false);
      break;
    case FrameType::kVerdict:
      handle_score(conn, frame, /*decision_only=*/true);
      break;
    case FrameType::kStats:
      send_frame(conn, FrameType::kStatsResult, frame.request_id,
                 serve::serialize(service_.stats()));
      break;
    default:
      send_error(conn, frame.request_id, ErrorCode::kUnsupported,
                 "server does not accept this frame type");
      break;
  }
}

void NetServer::handle_score(Connection& conn, const Frame& frame, bool decision_only) {
  // Fair share first, before any decode work: a flooding connection must
  // not even cost the reactor payload parsing beyond its share. The
  // refusal is in-protocol and the connection stays fully usable — the
  // next token refill readmits it.
  if (conn.bucket.enabled() &&
      !conn.bucket.try_take(std::chrono::steady_clock::now())) {
    ++conn.throttled;
    stats_.at<&NetServerStats::throttled_responses>().fetch_add(1, std::memory_order_relaxed);
    raise_peak(stats_.at<&NetServerStats::throttled_conn_peak>(), conn.throttled);
    service_.record_throttled();
    send_error(conn, frame.request_id, ErrorCode::kThrottled,
               "per-connection rate limit; retry later");
    return;
  }
  std::optional<ScoreRequest> req = decode_score_request(frame.payload);
  if (!req.has_value() || req->view >= trace::kNumViews) {
    stats_.at<&NetServerStats::protocol_errors>().fetch_add(1, std::memory_order_relaxed);
    conn.close_after_flush = true;  // before send: flush may finish the job
    send_error(conn, frame.request_id, ErrorCode::kBadFrame, "malformed score request");
    return;
  }
  auto owned = std::make_unique<Pending>();
  Pending* pending = owned.get();
  pending->server = this;
  pending->key = next_pending_key_++;
  pending->conn_id = conn.id;
  pending->request_id = frame.request_id;
  pending->decision_only = decision_only;
  pending->ticket.set_decision_only(decision_only);
  pending->features.put(
      trace::FeatureConfig{static_cast<trace::FeatureView>(req->view), req->period},
      std::move(req->windows));
  pending->ticket.set_completion_hook(&NetServer::score_complete_hook, pending);
  std::optional<serve::ServiceClock::time_point> deadline;
  if (req->deadline_us > 0) {
    deadline = serve::ServiceClock::now() + std::chrono::microseconds(req->deadline_us);
  }
  pending_.emplace(pending->key, std::move(owned));
  const serve::SubmitStatus status =
      service_.try_submit(pending->features, pending->ticket, deadline);
  if (status == serve::SubmitStatus::kAccepted) {
    stats_.at<&NetServerStats::scores_submitted>().fetch_add(1, std::memory_order_relaxed);
    return;  // the reply travels via score_complete_hook -> drain_completions
  }
  // Rejected: the hook already pushed this key; erasing the entry makes
  // the mailbox token stale, and drain_completions skips stale keys.
  pending_.erase(pending->key);
  if (status == serve::SubmitStatus::kRejected) {
    // Admission control judged the DEADLINE unmeetable — a request-level
    // disposition, not a transport condition, so it travels as a result
    // frame with outcome kRejected (exactly how a queue-expired request
    // reports kDeadlineMissed), never as an Error frame.
    stats_.at<&NetServerStats::rejected_responses>().fetch_add(1, std::memory_order_relaxed);
    const auto outcome = static_cast<std::uint8_t>(serve::RequestOutcome::kRejected);
    if (decision_only) {
      VerdictResult result;
      result.outcome = outcome;
      send_verdict(conn, frame.request_id, result);
    } else {
      ScoreResult result;
      result.outcome = outcome;
      send_result(conn, frame.request_id, result);
    }
    return;
  }
  stats_.at<&NetServerStats::shed_responses>().fetch_add(1, std::memory_order_relaxed);
  const bool shed = status == serve::SubmitStatus::kShed;
  send_error(conn, frame.request_id, shed ? ErrorCode::kShed : ErrorCode::kClosed,
             shed ? "request queue full; retry later" : "scoring service closed");
}

void NetServer::score_complete_hook(void* arg) noexcept {
  auto* pending = static_cast<Pending*>(arg);
  // `pending` stays alive until the reactor consumes the key we are about
  // to push, and the server outlives the hook window via hooks_in_flight_;
  // past the push, touch only the locals.
  NetServer* server = pending->server;
  server->hooks_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  const std::uint64_t key = pending->key;
  bool was_empty = false;
  {
    const util::MutexLock lock(server->completed_mu_);
    was_empty = server->completed_.empty();
    server->completed_.push_back(key);
  }
  // Wake only on the empty -> non-empty transition. drain_completions
  // swaps the mailbox out under the same lock, so a push that finds it
  // non-empty lands in a batch whose first push already woke the reactor,
  // and that batch is drained only after the wake byte is read.
  if (was_empty) server->wake();
  server->hooks_in_flight_.fetch_sub(1, std::memory_order_release);
}

void NetServer::drain_completions() {
  {
    const util::MutexLock lock(completed_mu_);
    drained_.swap(completed_);  // the two vectors trade capacity, never reallocate
  }
  for (const std::uint64_t key : drained_) {
    const auto it = pending_.find(key);
    if (it == pending_.end()) continue;  // stale: rejected submission, handled inline
    const std::unique_ptr<Pending> pending = std::move(it->second);
    pending_.erase(it);
    if (pending->conn_id == 0) continue;  // client left before the verdict
    Connection* conn = find_conn(pending->conn_id);
    if (conn == nullptr) continue;
    const serve::ScoreTicket& ticket = pending->ticket;
    const auto outcome = static_cast<std::uint8_t>(ticket.outcome());
    const auto latency_ns = static_cast<std::uint64_t>(ticket.latency().count());
    const std::vector<double>& scores = ticket.scores();
    if (pending->decision_only) {
      // Decision-only reply: per-window decisions at the scoring epoch's
      // threshold (stamped into the ticket by the worker) — the raw
      // scores never reach the wire.
      VerdictResult& result = verdict_scratch_;
      result.outcome = outcome;
      result.verdict = ticket.verdict();
      result.epoch_id = ticket.epoch_id();
      result.latency_ns = latency_ns;
      result.decisions.resize(scores.size());
      for (std::size_t i = 0; i < scores.size(); ++i) {
        result.decisions[i] = scores[i] >= ticket.threshold();
      }
      send_verdict(*conn, pending->request_id, result);
    } else {
      ScoreResult& result = result_scratch_;
      result.outcome = outcome;
      result.verdict = ticket.verdict();
      result.epoch_id = ticket.epoch_id();
      result.latency_ns = latency_ns;
      result.scores.assign(scores.begin(), scores.end());
      send_result(*conn, pending->request_id, result);
    }
    if (!conn->flush_queued) {
      conn->flush_queued = true;
      to_flush_.push_back(conn->id);
    }
  }
  drained_.clear();
  // One flush per connection for the whole drain.
  for (const std::uint64_t conn_id : to_flush_) {
    Connection* conn = find_conn(conn_id);
    if (conn == nullptr) continue;
    conn->flush_queued = false;
    if (!flush(*conn)) close_connection(conn_id);
  }
  to_flush_.clear();
}

// -- write path -------------------------------------------------------------

void NetServer::send_frame(Connection& conn, FrameType type, std::uint64_t request_id,
                           std::span<const std::uint8_t> payload) {
  if (conn.dead) return;
  append_frame(type, request_id, payload, conn.out);
  note_reply(conn);
}

void NetServer::send_result(Connection& conn, std::uint64_t request_id,
                            const ScoreResult& result) {
  if (conn.dead) return;
  append_score_result(request_id, result, conn.out);
  note_reply(conn);
}

void NetServer::send_verdict(Connection& conn, std::uint64_t request_id,
                             const VerdictResult& result) {
  if (conn.dead) return;
  append_verdict_result(request_id, result, conn.out);
  note_reply(conn);
}

void NetServer::send_error(Connection& conn, std::uint64_t request_id, ErrorCode code,
                           std::string message) {
  if (conn.dead) return;
  append_error(request_id, ErrorBody{.code = code, .message = std::move(message)}, conn.out);
  note_reply(conn);
}

void NetServer::note_reply(const Connection& conn) {
  stats_.at<&NetServerStats::frames_out>().fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t depth = conn.out.size() - conn.out_at;
  raise_peak(stats_.at<&NetServerStats::out_buffer_peak>(), depth);
}

bool NetServer::flush(Connection& conn) {
  if (conn.dead) return false;
  while (conn.out_at < conn.out.size()) {
    stats_.at<&NetServerStats::write_calls>().fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_at,
                             conn.out.size() - conn.out_at, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_at += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn.dead = true;  // EPIPE / ECONNRESET / anything fatal
    return false;
  }
  if (conn.out_at == conn.out.size()) {
    conn.out.clear();
    conn.out_at = 0;
  } else if (conn.out_at > 64 * 1024) {  // reclaim the written prefix
    conn.out.erase(conn.out.begin(), conn.out.begin() + static_cast<std::ptrdiff_t>(conn.out_at));
    conn.out_at = 0;
  }
  if (conn.close_after_flush && conn.out.empty()) {
    conn.dead = true;  // error frame delivered; the connection is done
    return false;
  }
  if (!update_interest(conn)) {
    conn.dead = true;  // poller refused the fd; unmonitored = hung forever
    return false;
  }
  return true;
}

bool NetServer::update_interest(Connection& conn) {
  const std::size_t backlog = conn.out.size() - conn.out_at;
  if (backlog > config_.write_buffer_limit) {
    if (!conn.reads_paused) {
      // Bounded buffering: stop reading so TCP flow control pushes back on
      // the client instead of this buffer absorbing the flood.
      conn.reads_paused = true;
      stats_.at<&NetServerStats::reads_paused>().fetch_add(1, std::memory_order_relaxed);
    }
  } else if (conn.reads_paused && backlog <= config_.write_buffer_limit / 2) {
    conn.reads_paused = false;
  }
  const bool want_read = !conn.reads_paused && !conn.close_after_flush;
  return poller_->set(conn.fd, want_read, backlog > 0);
}

void NetServer::close_connection(std::uint64_t conn_id) {
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;
  poller_->remove(conn.fd);
  conn_by_fd_.erase(conn.fd);
  ::close(conn.fd);
  // Orphan this connection's in-flight scores: the tickets still complete
  // (service accounting stays exact); the replies just have nowhere to go.
  for (auto& [key, pending] : pending_) {
    if (pending->conn_id == conn_id) pending->conn_id = 0;
  }
  conns_.erase(it);
  stats_.at<&NetServerStats::closed_connections>().fetch_add(1, std::memory_order_relaxed);
}

}  // namespace shmd::net
