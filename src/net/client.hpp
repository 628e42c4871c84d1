// NetClient: blocking client for the Stochastic-HMD wire protocol.
//
// Two usage modes, both over one connection:
//
//   * synchronous — score()/ping()/stats() each write a frame and block
//     for its reply; the simplest integration for monitors that score one
//     program at a time.
//   * pipelined — send_score() stamps and writes a request without
//     waiting; recv_reply() blocks for the next reply frame and reports
//     which request id it answers. Many requests ride in flight at once,
//     which is what actually fills the server's worker pool from a single
//     connection.
//
// Threading: the client itself is lock-free and therefore single-threaded
// per direction. One thread may use the sync API; alternatively exactly
// one sender thread may call send_score()/try-send while exactly one
// reader thread calls recv_reply() — the two directions share only the
// socket fd, which is full-duplex. Do not mix the sync calls with a
// concurrent reader thread. Send-side state (the reused encode buffer) and
// receive-side state (the frame decoder) are kept disjoint for exactly
// this split.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "serve/service_stats.hpp"
#include "util/cli.hpp"

namespace shmd::net {

/// One decoded reply frame. Exactly one of `result` / `error` is set for
/// score replies; pong and stats replies carry only the raw payload.
struct Reply {
  std::uint64_t request_id = 0;
  FrameType type = FrameType::kPong;
  std::optional<ScoreResult> result;          ///< set when type == kScoreResult
  std::optional<VerdictResult> verdict;       ///< set when type == kVerdictResult
  std::optional<ErrorBody> error;             ///< set when type == kError (e.g. kShed)
  std::vector<std::uint8_t> payload;          ///< raw payload (kPong / kStatsResult)
};

/// Thrown when a receive deadline (set_recv_deadline) expires with no
/// bytes from the server — the dead-daemon guard. The connection is NOT
/// torn down: a caller that wants to keep waiting may simply retry.
class RecvDeadlineExpired : public std::runtime_error {
 public:
  RecvDeadlineExpired()
      : std::runtime_error("NetClient: receive deadline expired (server unresponsive)") {}
};

class NetClient {
 public:
  NetClient() = default;
  ~NetClient();  ///< close()

  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connect to a TCP host:port or Unix path. Throws std::runtime_error
  /// on failure (refused, unresolvable host, missing socket file).
  void connect(const util::Endpoint& endpoint);
  void close() noexcept;
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Bound every blocking receive: a read_frame() that sees no bytes for
  /// `timeout` throws RecvDeadlineExpired instead of hanging forever on a
  /// dead or half-open server. zero() disables (the default: wait
  /// forever, the pre-deadline behavior). Applies to the current
  /// connection immediately and to any future connect().
  void set_recv_deadline(std::chrono::milliseconds timeout);
  [[nodiscard]] std::chrono::milliseconds recv_deadline() const noexcept {
    return recv_deadline_;
  }

  // -- synchronous API -----------------------------------------------------

  /// Send one score request and block for its reply (a ScoreResult, or an
  /// Error such as kShed under overload). Throws on transport failure.
  Reply score(const ScoreRequest& request);

  /// Liveness round-trip; false only by throwing never — a lost
  /// connection throws. Returns true when the pong echoed correctly.
  bool ping();

  /// Fetch and decode the server's ServiceStatsSnapshot.
  [[nodiscard]] std::optional<serve::ServiceStatsSnapshot> stats();

  // -- pipelined API -------------------------------------------------------

  /// Write one score request without waiting; returns its request id.
  /// Blocks only if the socket's send buffer is full (the server applies
  /// read-pause backpressure under overload).
  std::uint64_t send_score(const ScoreRequest& request);

  /// Decision-only sibling of send_score(): same request payload on a
  /// kVerdict frame; the server answers with kVerdictResult (decisions,
  /// no raw scores). This is the only scoring call a --no-raw-scores
  /// server accepts from untrusted endpoints.
  std::uint64_t send_verdict(const ScoreRequest& request);

  /// Block for the next reply frame, in server completion order.
  Reply recv_reply();

 private:
  void send_frame(FrameType type, std::uint64_t request_id,
                  std::span<const std::uint8_t> payload);
  /// Encode a kScore/kVerdict frame into send_buf_ and write it.
  std::uint64_t send_request(FrameType type, const ScoreRequest& request);
  /// Write send_buf_ (one encoded frame) to the socket in full.
  void send_buffered();
  void apply_recv_deadline();
  Frame read_frame();  ///< blocking; throws on EOF / garbage / deadline
  static Reply to_reply(Frame frame);

  int fd_ = -1;
  std::uint64_t next_id_ = 1;
  std::chrono::milliseconds recv_deadline_{0};  ///< 0 = wait forever
  // The sender owns send_buf_ (reused frame encode buffer) and the reader
  // owns decoder_; the two directions share only fd_.
  std::vector<std::uint8_t> send_buf_;
  FrameDecoder decoder_;
};

}  // namespace shmd::net
