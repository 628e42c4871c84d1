// The Stochastic-HMD wire protocol: length-prefixed binary frames between
// scoring clients and the network front-end (server.hpp).
//
// A frame is a fixed 20-byte header followed by a payload:
//
//   offset  size  field
//   0       4     magic 0x53484D44 ("SHMD"), little-endian
//   4       1     protocol version (kProtocolVersion)
//   5       1     frame type (FrameType)
//   6       2     reserved, must be 0
//   8       8     request id (client-chosen; echoed verbatim in replies)
//   16      4     payload length in bytes
//
// Everything multi-byte is little-endian, written and read field by field
// — the format is defined by these functions, not by any struct layout or
// host endianness. Doubles travel as their IEEE-754 bit pattern in a u64, so a
// score is bit-identical on both ends of the wire: the service's
// determinism contract (fixed seed + admission order => identical scores)
// survives transport.
//
// FrameDecoder is deliberately incremental: TCP gives byte streams, not
// frames, so feed() accepts arbitrary fragmentation and coalescing and
// next() yields complete frames as they materialize. Garbage (bad magic,
// unknown version, nonzero reserved bits) and oversized payloads put the
// decoder into a sticky failed() state with a diagnostic — after a
// framing error nothing downstream is trustworthy, so the connection must
// be torn down, never resynchronized by guesswork.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace shmd::net {

inline constexpr std::uint32_t kMagic = 0x53484D44u;  // "SHMD"
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 20;
/// Default payload ceiling: generous for feature windows (a 1 MiB frame
/// holds ~8k windows of 16 doubles) yet small enough that a hostile
/// length field cannot balloon server memory.
inline constexpr std::size_t kDefaultMaxPayload = 1u << 20;

enum class FrameType : std::uint8_t {
  kPing = 0,         ///< liveness probe; payload echoed back in kPong
  kPong = 1,
  kScore = 2,        ///< feature windows to score (ScoreRequest payload)
  kScoreResult = 3,  ///< terminal scoring outcome (ScoreResult payload)
  kStats = 4,        ///< request a ServiceStatsSnapshot (empty payload)
  kStatsResult = 5,  ///< serve::serialize()d snapshot: named records, unknown names skipped
  kError = 6,        ///< in-protocol rejection (ErrorBody payload)
  /// Decision-only scoring (the deployed attack surface, §V threat
  /// model): same ScoreRequest payload as kScore, but the reply is a
  /// kVerdictResult that exposes per-window DECISIONS at the serving
  /// epoch's threshold — never the raw scores. A server run with
  /// --no-raw-scores answers untrusted endpoints only on this pair.
  kVerdict = 7,
  kVerdictResult = 8,  ///< terminal decision-only outcome (VerdictResult payload)
};

/// Error frame codes. kShed is the overload-control path: a full
/// RequestQueue surfaces as this frame on the live connection — never as
/// a disconnect, never as unbounded buffering.
enum class ErrorCode : std::uint16_t {
  kShed = 1,         ///< request queue full; retry later
  kClosed = 2,       ///< service shutting down; no more scoring
  kBadFrame = 3,     ///< malformed payload in an otherwise valid frame
  kUnsupported = 4,  ///< frame type the server does not handle
  kThrottled = 5,    ///< per-connection fair-share rate limit; retry later —
                     ///< never a disconnect (the connection stays usable)
};

struct Frame {
  FrameType type = FrameType::kPing;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Append one encoded frame (header + payload) to `out`.
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out);

/// Append a frame with an opaque payload (ping/pong, stats) to `out`.
void append_frame(FrameType type, std::uint64_t request_id,
                  std::span<const std::uint8_t> payload, std::vector<std::uint8_t>& out);

// -- payload codecs ---------------------------------------------------------

/// kScore payload: one program's feature windows plus the feature-config
/// key the serving epoch must match, and an optional relative deadline.
struct ScoreRequest {
  std::uint8_t view = 0;          ///< trace::FeatureView underlying value
  std::uint32_t period = 2048;    ///< detection period (window size)
  std::uint32_t deadline_us = 0;  ///< relative deadline; 0 = none
  std::size_t width = 0;          ///< doubles per window
  std::vector<std::vector<double>> windows;

  friend bool operator==(const ScoreRequest&, const ScoreRequest&) = default;
};

/// kScoreResult payload: the terminal disposition of an accepted request.
/// `outcome` carries serve::RequestOutcome's underlying value.
struct ScoreResult {
  std::uint8_t outcome = 0;
  bool verdict = false;
  std::uint64_t epoch_id = 0;
  std::uint64_t latency_ns = 0;
  std::vector<double> scores;

  friend bool operator==(const ScoreResult&, const ScoreResult&) = default;
};

/// kVerdictResult payload: the decision-only sibling of ScoreResult.
/// Wire layout: outcome u8, verdict u8, reserved u16, epoch_id u64,
/// latency_ns u64, n_decisions u32, then ceil(n/8) bytes of decision
/// bits (LSB-first within each byte; pad bits in the last byte MUST be
/// zero — a nonzero pad is rejected as malformed).
struct VerdictResult {
  std::uint8_t outcome = 0;  ///< serve::RequestOutcome underlying value
  bool verdict = false;      ///< program-level fraction-vote verdict
  std::uint64_t epoch_id = 0;
  std::uint64_t latency_ns = 0;
  std::vector<bool> decisions;  ///< per-window decisions at the epoch threshold

  friend bool operator==(const VerdictResult&, const VerdictResult&) = default;
};

struct ErrorBody {
  ErrorCode code = ErrorCode::kBadFrame;
  std::string message;

  friend bool operator==(const ErrorBody&, const ErrorBody&) = default;
};

// -- in-place frame writers -------------------------------------------------
//
// One writer per frame type. Each appends a complete frame (header +
// payload) to `out` with a single resize and direct little-endian stores,
// so a frame never passes through a separate payload vector; reusing `out`
// across calls makes encoding allocation-free in steady state. The
// payload-only encode_* functions below share the same payload writers.

/// kScore or kVerdict frame carrying `req`.
void append_score_request(FrameType type, std::uint64_t request_id, const ScoreRequest& req,
                          std::vector<std::uint8_t>& out);
void append_score_result(std::uint64_t request_id, const ScoreResult& result,
                         std::vector<std::uint8_t>& out);
void append_verdict_result(std::uint64_t request_id, const VerdictResult& result,
                           std::vector<std::uint8_t>& out);
void append_error(std::uint64_t request_id, const ErrorBody& error,
                  std::vector<std::uint8_t>& out);

/// Payload codecs (no frame header). kScore payload layout: view u8,
/// reserved u8, reserved u16, period u32, deadline_us u32, n_windows u32,
/// width u32, then every window's doubles — 20 + 8 * sum(|window|) bytes.
inline constexpr std::size_t kScoreRequestFixedSize = 20;

[[nodiscard]] std::vector<std::uint8_t> encode_score_request(const ScoreRequest& req);
[[nodiscard]] std::optional<ScoreRequest> decode_score_request(
    std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_score_result(const ScoreResult& result);
[[nodiscard]] std::optional<ScoreResult> decode_score_result(
    std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_verdict_result(const VerdictResult& result);
[[nodiscard]] std::optional<VerdictResult> decode_verdict_result(
    std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_error(const ErrorBody& error);
[[nodiscard]] std::optional<ErrorBody> decode_error(std::span<const std::uint8_t> payload);

// -- incremental decoding ---------------------------------------------------

/// Reassembles frames from an arbitrarily fragmented byte stream. Usage:
/// feed() every chunk the socket yields, then drain next() until nullopt.
/// failed() is sticky; a failed decoder ignores further input.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  void feed(std::span<const std::uint8_t> bytes);

  /// Next complete frame, or nullopt when more bytes are needed (or the
  /// stream has failed). Frames come out in wire order.
  [[nodiscard]] std::optional<Frame> next();

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// Bytes buffered but not yet returned as frames.
  [[nodiscard]] std::size_t buffered() const noexcept { return buffer_.size() - consumed_; }

 private:
  void fail(std::string reason);

  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< parsed prefix, compacted lazily
  bool failed_ = false;
  std::string error_;
};

}  // namespace shmd::net
