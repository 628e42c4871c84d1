// NetServer: the socket front-end of serve::ScoringService.
//
// One reactor thread multiplexes every connection with non-blocking I/O —
// epoll on Linux, poll() as the portable fallback (also selectable at
// runtime for test coverage via NetServerConfig::force_poll). The reactor
// NEVER blocks on the scoring plane: submissions go through try_submit(),
// and completions flow back through ScoreTicket's completion hook, which
// hands the reactor a key over a self-wake pipe. Scoring threads never
// touch a socket; the reactor never waits on a ticket.
//
// Syscalls are paid per batch, not per frame:
//   * a completion hook writes the wake pipe only when its push turns the
//     completion mailbox from empty to non-empty; the check runs under the
//     mailbox lock the reactor drains under, so no wake-up is lost — and
//     none may be: an idle reactor sleeps until an fd is ready, with no
//     timeout to paper over a missed wake;
//   * replies are encoded in place into the connection's write buffer and
//     each touched connection is flushed once per batch — once per
//     mailbox drain, and once per recv() for the inline replies that
//     decoding a read produces;
//   * backpressure (write-buffer limit, read pause) is re-evaluated after
//     each batch flush, and the poller is only told about interest
//     changes.
//
// Backpressure discipline (the whole point of fronting a *bounded* queue):
//   * a full RequestQueue surfaces as an in-protocol kShed Error frame on
//     the live connection — never a disconnect, never hidden buffering;
//   * an unmeetable deadline (admission-control kRejected) surfaces as a
//     Score/VerdictResult whose outcome is kRejected — the request-level
//     disposition, distinct from transport-level rejections;
//   * each connection owns a fair-share token bucket (throttle_rps): a
//     hot client that exceeds its share gets in-protocol kThrottled Error
//     frames — never a disconnect — so one flooding connection degrades
//     to its fair share instead of starving every other client behind
//     the shared queue;
//   * per-connection write buffers are bounded: past the limit the
//     reactor stops reading that connection (so TCP flow control pushes
//     back on the client) until the buffer drains;
//   * only protocol garbage — bad magic, wrong version, oversized or
//     malformed frames — costs the connection: one kBadFrame Error frame,
//     flushed best-effort, then close.
//
// Determinism rides along untouched: the service seeds each request's
// fault stream from its admission sequence number, and a single pipelined
// connection admits requests in wire order, so scores over loopback are
// bit-identical to the same submissions made in-process.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/frame.hpp"
#include "serve/scoring_service.hpp"
#include "util/cli.hpp"
#include "util/counter_table.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace shmd::net {

struct NetServerConfig {
  /// Largest accepted frame payload; larger = protocol error.
  std::size_t max_payload = kDefaultMaxPayload;
  /// Per-connection outbound buffer ceiling. Above it the reactor stops
  /// reading that connection until the buffer drains below half.
  std::size_t write_buffer_limit = 256 * 1024;
  /// Use the poll() reactor even where epoll is available (test knob —
  /// both reactors must pass the same suite).
  bool force_poll = false;
  /// When false, kScore frames from UNTRUSTED listeners (see
  /// add_listener) are refused with an in-protocol kUnsupported error:
  /// untrusted endpoints get the decision-only kVerdict channel, never
  /// raw scores. The paper's threat model hands the attacker decisions;
  /// this knob keeps the wire from leaking more than the model assumes.
  bool allow_raw_scores = true;
  /// Per-connection fair-share limit on scoring requests (kScore +
  /// kVerdict), in requests per second; 0 disables throttling. Excess
  /// requests get an in-protocol kThrottled Error frame — the connection
  /// is never closed for being hot.
  double throttle_rps = 0.0;
  /// Token-bucket burst: how many requests a connection may issue
  /// back-to-back before the per-second rate binds.
  double throttle_burst = 32.0;
};

/// Reactor-thread counters, snapshot via NetServer::stats().
struct NetServerStats {
  std::uint64_t accepted_connections = 0;
  std::uint64_t closed_connections = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t scores_submitted = 0;  ///< accepted by the service
  std::uint64_t shed_responses = 0;    ///< kShed/kClosed Error frames sent
  std::uint64_t protocol_errors = 0;   ///< connections killed for garbage
  std::uint64_t reads_paused = 0;      ///< backpressure engagements
  std::uint64_t out_buffer_peak = 0;   ///< high-water mark of any write buffer
  std::uint64_t accept_overflow = 0;   ///< connections shed: fd exhaustion or poller refusal
  std::uint64_t throttled_responses = 0;  ///< kThrottled Error frames sent
  std::uint64_t rejected_responses = 0;   ///< admission-control kRejected replies sent
  /// High-water mark of any single connection's throttle count — reads as
  /// "the hottest client was turned away this many times" (fair-share
  /// evidence: a polite client's count stays near zero while this climbs).
  std::uint64_t throttled_conn_peak = 0;
  std::uint64_t write_calls = 0;  ///< send() calls on client connections
  std::uint64_t wakeups = 0;      ///< wake-pipe writes (completion hooks + stop())
};

/// NetServerStats, one row per counter (see util::CounterBlock).
inline constexpr auto kNetServerCounters = std::to_array<util::CounterRow<NetServerStats>>({
    {"accepted_connections", &NetServerStats::accepted_connections},
    {"closed_connections", &NetServerStats::closed_connections},
    {"frames_in", &NetServerStats::frames_in},
    {"frames_out", &NetServerStats::frames_out},
    {"scores_submitted", &NetServerStats::scores_submitted},
    {"shed_responses", &NetServerStats::shed_responses},
    {"protocol_errors", &NetServerStats::protocol_errors},
    {"reads_paused", &NetServerStats::reads_paused},
    {"out_buffer_peak", &NetServerStats::out_buffer_peak},
    {"accept_overflow", &NetServerStats::accept_overflow},
    {"throttled_responses", &NetServerStats::throttled_responses},
    {"rejected_responses", &NetServerStats::rejected_responses},
    {"throttled_conn_peak", &NetServerStats::throttled_conn_peak},
    {"write_calls", &NetServerStats::write_calls},
    {"wakeups", &NetServerStats::wakeups},
});

class NetServer {
 public:
  explicit NetServer(serve::ScoringService& service, NetServerConfig config = {});
  ~NetServer();  ///< stop()

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bind + listen on a TCP host:port or Unix path. Call before start().
  /// Returns the resolved endpoint — for TCP port 0 the kernel-assigned
  /// ephemeral port is filled in, so tests can bind "127.0.0.1:0" and
  /// learn where to connect. Throws std::runtime_error on bind failure.
  /// `trusted` marks connections accepted here as trusted for the
  /// allow_raw_scores policy (typical deployment: local Unix socket
  /// trusted, TCP untrusted).
  util::Endpoint add_listener(const util::Endpoint& endpoint, bool trusted = true);

  /// Start the reactor thread. Requires at least one listener.
  void start();

  /// Stop accepting, wait for every in-flight score to complete (each
  /// accepted ticket is completed by the service, never dropped), close
  /// all connections, join the reactor. Idempotent.
  void stop();

  [[nodiscard]] NetServerStats stats() const;

 private:
  struct Connection;
  struct Pending;
  class Poller;

  void event_loop();
  void wake() noexcept;
  void handle_accept(int listen_fd);
  void handle_readable(Connection& conn);
  void handle_frame(Connection& conn, Frame frame);
  void handle_score(Connection& conn, const Frame& frame, bool decision_only);
  void drain_completions();
  // Reply writers: encode in place into conn.out; nothing reaches the
  // socket until the batch's flush().
  void send_frame(Connection& conn, FrameType type, std::uint64_t request_id,
                  std::span<const std::uint8_t> payload);
  void send_result(Connection& conn, std::uint64_t request_id, const ScoreResult& result);
  void send_verdict(Connection& conn, std::uint64_t request_id, const VerdictResult& result);
  void send_error(Connection& conn, std::uint64_t request_id, ErrorCode code,
                  std::string message);
  /// Bookkeeping after a reply was appended to conn.out.
  void note_reply(const Connection& conn);
  /// Write as much of conn.out as the socket accepts; updates poller
  /// interest and read-pause state. Returns false if the connection died.
  bool flush(Connection& conn);
  /// Recompute poller interest from buffered output and pause state.
  /// Returns false if the poller refused the fd (the connection must die
  /// — an unmonitored socket would hang silently forever).
  [[nodiscard]] bool update_interest(Connection& conn);
  void close_connection(std::uint64_t conn_id);
  Connection* find_conn(std::uint64_t conn_id) noexcept;
  static void score_complete_hook(void* arg) noexcept;

  serve::ScoringService& service_;
  NetServerConfig config_;

  struct Listener {
    int fd = -1;
    util::Endpoint endpoint;  ///< resolved
    bool trusted = true;      ///< connections inherit this trust marking
  };
  std::vector<Listener> listeners_;

  // Reactor state — touched only by the reactor thread once start()ed.
  std::unique_ptr<Poller> poller_;
  std::unordered_map<int, std::uint64_t> conn_by_fd_;  ///< fd -> conn id (fds recycle; ids don't)
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> conns_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Pending>> pending_;
  std::uint64_t next_conn_id_ = 1;
  std::uint64_t next_pending_key_ = 1;
  // Reactor scratch, reused so the reply path does not allocate in steady
  // state: mailbox keys being handled, connections a drain wrote to, and
  // reply staging.
  std::vector<std::uint64_t> drained_;
  std::vector<std::uint64_t> to_flush_;
  ScoreResult result_scratch_;
  VerdictResult verdict_scratch_;

  // Completion mailbox: scoring threads push keys, the reactor drains.
  util::Mutex completed_mu_;
  std::vector<std::uint64_t> completed_ SHMD_GUARDED_BY(completed_mu_);
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: [0] read (reactor), [1] write (hook)
  /// Reserved fd (open /dev/null) released under EMFILE/ENFILE so
  /// handle_accept can accept-and-close instead of busy-spinning on a
  /// level-triggered listener whose backlog it cannot drain.
  int spare_fd_ = -1;
  /// Hooks between their mailbox push and their last touch of `this`;
  /// stop() spins to zero before returning so a completing worker can
  /// never race server destruction.
  std::atomic<std::size_t> hooks_in_flight_{0};

  std::thread reactor_;
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  util::CounterBlock<kNetServerCounters> stats_;
};

}  // namespace shmd::net
