#include "net/frame.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>

namespace shmd::net {

namespace {

// Little-endian primitives over raw bytes. Writers store into storage the
// caller has already sized; the reader walks a span with explicit bounds
// checks and a sticky ok flag, so a truncated or hostile payload yields
// nullopt instead of UB. On a little-endian host both directions compile
// to a plain unaligned load or store.

template <typename T>
std::uint8_t* put(std::uint8_t* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return p + sizeof v;
}

std::uint8_t* put_f64(std::uint8_t* p, double v) {
  return put(p, std::bit_cast<std::uint64_t>(v));
}

template <typename T>
T load(const std::uint8_t* p) {
  static_assert(std::is_unsigned_v<T>);
  T v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i) v |= static_cast<T>(T{p[i]} << (8 * i));
  }
  return v;
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::span<const std::uint8_t> raw(std::size_t n) {
    if (!take(n)) return {};
    return bytes_.subspan(at_ - n, n);
  }

  /// True iff every read so far was in bounds AND the payload is fully
  /// consumed — trailing garbage is as malformed as truncation.
  [[nodiscard]] bool exhausted() const noexcept { return ok_ && at_ == bytes_.size(); }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - at_; }

 private:
  template <typename T>
  T get() {
    return take(sizeof(T)) ? load<T>(bytes_.data() + at_ - sizeof(T)) : T{0};
  }

  bool take(std::size_t n) {
    if (!ok_ || bytes_.size() - at_ < n) {
      ok_ = false;
      return false;
    }
    at_ += n;
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

bool known_type(std::uint8_t type) {
  return type <= static_cast<std::uint8_t>(FrameType::kVerdictResult);
}

// -- payload writers ---------------------------------------------------------
//
// One (payload_size, write_payload) pair per payload type: the single
// definition of its layout, shared by the in-place frame writers and the
// payload-only encoders.

constexpr std::size_t kResultFixedSize = 24;  // outcome, verdict, u16, epoch, latency, count

std::size_t payload_size(const ScoreRequest& req) {
  std::size_t doubles = 0;
  for (const std::vector<double>& window : req.windows) doubles += window.size();
  return kScoreRequestFixedSize + 8 * doubles;
}

void write_payload(std::uint8_t* p, const ScoreRequest& req) {
  *p++ = req.view;
  *p++ = 0;                      // reserved
  p = put(p, std::uint16_t{0});  // reserved
  p = put(p, req.period);
  p = put(p, req.deadline_us);
  p = put(p, static_cast<std::uint32_t>(req.windows.size()));
  p = put(p, static_cast<std::uint32_t>(req.width));
  for (const std::vector<double>& window : req.windows) {
    for (const double x : window) p = put_f64(p, x);
  }
}

std::size_t payload_size(const ScoreResult& result) {
  return kResultFixedSize + 8 * result.scores.size();
}

std::uint8_t* write_result_head(std::uint8_t* p, std::uint8_t outcome, bool verdict,
                                std::uint64_t epoch_id, std::uint64_t latency_ns,
                                std::size_t count) {
  *p++ = outcome;
  *p++ = verdict ? 1 : 0;
  p = put(p, std::uint16_t{0});  // reserved
  p = put(p, epoch_id);
  p = put(p, latency_ns);
  return put(p, static_cast<std::uint32_t>(count));
}

void write_payload(std::uint8_t* p, const ScoreResult& result) {
  p = write_result_head(p, result.outcome, result.verdict, result.epoch_id, result.latency_ns,
                        result.scores.size());
  for (const double s : result.scores) p = put_f64(p, s);
}

std::size_t payload_size(const VerdictResult& result) {
  return kResultFixedSize + (result.decisions.size() + 7) / 8;
}

void write_payload(std::uint8_t* p, const VerdictResult& result) {
  p = write_result_head(p, result.outcome, result.verdict, result.epoch_id, result.latency_ns,
                        result.decisions.size());
  // Decision bits LSB-first; the storage arrives zeroed, so pad bits in
  // the last byte stay zero as the format requires.
  for (std::size_t i = 0; i < result.decisions.size(); ++i) {
    if (result.decisions[i]) p[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  }
}

/// Error text travels behind a u16 length, so longer messages are cut.
std::size_t message_size(const ErrorBody& error) {
  return std::min<std::size_t>(error.message.size(), 0xFFFF);
}

std::size_t payload_size(const ErrorBody& error) { return 4 + message_size(error); }

void write_payload(std::uint8_t* p, const ErrorBody& error) {
  const std::size_t len = message_size(error);
  p = put(p, static_cast<std::uint16_t>(error.code));
  p = put(p, static_cast<std::uint16_t>(len));
  std::memcpy(p, error.message.data(), len);
}

/// Grow `out` by one whole frame and write its header; returns where the
/// `payload_len` payload bytes go (already zeroed by the resize).
std::uint8_t* append_header(FrameType type, std::uint64_t request_id, std::size_t payload_len,
                            std::vector<std::uint8_t>& out) {
  const std::size_t at = out.size();
  out.resize(at + kHeaderSize + payload_len);
  std::uint8_t* p = out.data() + at;
  p = put(p, kMagic);
  *p++ = kProtocolVersion;
  *p++ = static_cast<std::uint8_t>(type);
  p = put(p, std::uint16_t{0});  // reserved
  p = put(p, request_id);
  return put(p, static_cast<std::uint32_t>(payload_len));
}

template <typename Payload>
void append_payload_frame(FrameType type, std::uint64_t request_id, const Payload& payload,
                          std::vector<std::uint8_t>& out) {
  write_payload(append_header(type, request_id, payload_size(payload), out), payload);
}

template <typename Payload>
std::vector<std::uint8_t> encode_payload(const Payload& payload) {
  std::vector<std::uint8_t> out(payload_size(payload));
  write_payload(out.data(), payload);
  return out;
}

}  // namespace

void append_frame(FrameType type, std::uint64_t request_id,
                  std::span<const std::uint8_t> payload, std::vector<std::uint8_t>& out) {
  std::uint8_t* p = append_header(type, request_id, payload.size(), out);
  if (!payload.empty()) std::memcpy(p, payload.data(), payload.size());
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& out) {
  append_frame(frame.type, frame.request_id, frame.payload, out);
}

void append_score_request(FrameType type, std::uint64_t request_id, const ScoreRequest& req,
                          std::vector<std::uint8_t>& out) {
  append_payload_frame(type, request_id, req, out);
}

void append_score_result(std::uint64_t request_id, const ScoreResult& result,
                         std::vector<std::uint8_t>& out) {
  append_payload_frame(FrameType::kScoreResult, request_id, result, out);
}

void append_verdict_result(std::uint64_t request_id, const VerdictResult& result,
                           std::vector<std::uint8_t>& out) {
  append_payload_frame(FrameType::kVerdictResult, request_id, result, out);
}

void append_error(std::uint64_t request_id, const ErrorBody& error,
                  std::vector<std::uint8_t>& out) {
  append_payload_frame(FrameType::kError, request_id, error, out);
}

std::vector<std::uint8_t> encode_score_request(const ScoreRequest& req) {
  return encode_payload(req);
}

std::optional<ScoreRequest> decode_score_request(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ScoreRequest req;
  req.view = r.u8();
  (void)r.u8();
  (void)r.u16();
  req.period = r.u32();
  req.deadline_us = r.u32();
  const std::uint32_t n_windows = r.u32();
  const std::uint32_t width = r.u32();
  req.width = width;
  if (!r.ok()) return std::nullopt;
  // The declared matrix must match the remaining bytes exactly; checking
  // before allocating keeps a hostile header from reserving gigabytes.
  // Division-shaped on purpose: n_windows * width * 8 can wrap mod 2^64
  // (e.g. n_windows=2^31, width=2^30 gives 0), so a product comparison
  // would wave exactly the allocation bomb through that it exists to stop.
  const std::uint64_t window_bytes = std::uint64_t{width} * 8;  // <= 2^35, cannot wrap
  if (width == 0 || n_windows == 0 || r.remaining() % window_bytes != 0 ||
      r.remaining() / window_bytes != n_windows) {
    return std::nullopt;
  }
  req.windows.assign(n_windows, std::vector<double>(width));
  for (std::vector<double>& window : req.windows) {
    for (double& x : window) x = r.f64();
  }
  if (!r.exhausted()) return std::nullopt;
  return req;
}

std::vector<std::uint8_t> encode_score_result(const ScoreResult& result) {
  return encode_payload(result);
}

std::optional<ScoreResult> decode_score_result(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ScoreResult result;
  result.outcome = r.u8();
  result.verdict = r.u8() != 0;
  (void)r.u16();
  result.epoch_id = r.u64();
  result.latency_ns = r.u64();
  const std::uint32_t n_scores = r.u32();
  if (!r.ok() || r.remaining() != std::uint64_t{n_scores} * 8) return std::nullopt;
  result.scores.resize(n_scores);
  for (double& s : result.scores) s = r.f64();
  if (!r.exhausted()) return std::nullopt;
  return result;
}

std::vector<std::uint8_t> encode_verdict_result(const VerdictResult& result) {
  return encode_payload(result);
}

std::optional<VerdictResult> decode_verdict_result(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  VerdictResult result;
  result.outcome = r.u8();
  result.verdict = r.u8() != 0;
  (void)r.u16();
  result.epoch_id = r.u64();
  result.latency_ns = r.u64();
  const std::uint32_t n = r.u32();
  // Exact-length check before allocating (same discipline as the score
  // codecs); (n + 7) / 8 cannot wrap — n is 32-bit.
  if (!r.ok() || r.remaining() != (std::uint64_t{n} + 7) / 8) return std::nullopt;
  const std::span<const std::uint8_t> bits = r.raw(r.remaining());
  if (!r.exhausted()) return std::nullopt;
  result.decisions.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    result.decisions[i] = (bits[i / 8] >> (i % 8)) & 1u;
  }
  // Pad bits in the final byte must be zero: a sloppy or hostile encoder
  // does not get a free side channel.
  if (n % 8 != 0 && !bits.empty() &&
      (bits.back() >> (n % 8)) != 0) {
    return std::nullopt;
  }
  return result;
}

std::vector<std::uint8_t> encode_error(const ErrorBody& error) { return encode_payload(error); }

std::optional<ErrorBody> decode_error(std::span<const std::uint8_t> payload) {
  Reader r(payload);
  ErrorBody error;
  error.code = static_cast<ErrorCode>(r.u16());
  const std::uint16_t len = r.u16();
  const std::span<const std::uint8_t> text = r.raw(len);
  if (!r.exhausted()) return std::nullopt;
  error.message.assign(text.begin(), text.end());
  return error;
}

void FrameDecoder::feed(std::span<const std::uint8_t> bytes) {
  if (failed_) return;  // sticky: a broken stream stays broken
  // Compact the parsed prefix before growing — the buffer never holds
  // more than one partial frame plus whatever feed() just delivered.
  if (consumed_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameDecoder::next() {
  if (failed_ || buffer_.size() - consumed_ < kHeaderSize) return std::nullopt;
  const std::size_t base = consumed_;
  if (load<std::uint32_t>(buffer_.data() + base) != kMagic) {
    fail("bad magic (not a Stochastic-HMD frame stream)");
    return std::nullopt;
  }
  if (buffer_[base + 4] != kProtocolVersion) {
    fail("unsupported protocol version " + std::to_string(buffer_[base + 4]));
    return std::nullopt;
  }
  if (!known_type(buffer_[base + 5])) {
    fail("unknown frame type " + std::to_string(buffer_[base + 5]));
    return std::nullopt;
  }
  if (buffer_[base + 6] != 0 || buffer_[base + 7] != 0) {
    fail("nonzero reserved header bytes");
    return std::nullopt;
  }
  const std::uint32_t payload_len = load<std::uint32_t>(buffer_.data() + base + 16);
  if (payload_len > max_payload_) {
    fail("payload length " + std::to_string(payload_len) + " exceeds limit " +
         std::to_string(max_payload_));
    return std::nullopt;
  }
  if (buffer_.size() - base < kHeaderSize + payload_len) return std::nullopt;  // need more
  Frame frame;
  frame.type = static_cast<FrameType>(buffer_[base + 5]);
  frame.request_id = load<std::uint64_t>(buffer_.data() + base + 8);
  frame.payload.assign(buffer_.begin() + static_cast<std::ptrdiff_t>(base + kHeaderSize),
                       buffer_.begin() +
                           static_cast<std::ptrdiff_t>(base + kHeaderSize + payload_len));
  consumed_ = base + kHeaderSize + payload_len;
  return frame;
}

void FrameDecoder::fail(std::string reason) {
  failed_ = true;
  error_ = std::move(reason);
  buffer_.clear();
  consumed_ = 0;
}

}  // namespace shmd::net
