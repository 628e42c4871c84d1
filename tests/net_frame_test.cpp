// Property/fuzz tests for the wire protocol (src/net/frame.hpp): payload
// codecs must round-trip bit-exactly, and FrameDecoder must reassemble
// frames under arbitrary fragmentation and coalescing while rejecting
// garbage — sticky failure, no UB, no hostile-length allocation. The
// whole suite runs under ASan/UBSan in CI's sanitize job.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "rng/xoshiro256ss.hpp"
#include "serve/service_stats.hpp"

namespace shmd::net {
namespace {

ScoreRequest make_request(std::uint64_t seed, std::size_t n_windows = 3,
                          std::size_t width = 8) {
  rng::Xoshiro256ss gen(seed);
  ScoreRequest req;
  req.view = static_cast<std::uint8_t>(gen.below(3));
  req.period = 2048;
  req.deadline_us = static_cast<std::uint32_t>(gen.below(1000));
  req.width = width;
  req.windows.assign(n_windows, std::vector<double>(width));
  for (auto& window : req.windows) {
    for (double& x : window) x = gen.uniform(-10.0, 10.0);
  }
  return req;
}

std::vector<std::uint8_t> wire_of(const Frame& frame) {
  std::vector<std::uint8_t> out;
  encode_frame(frame, out);
  return out;
}

// ----------------------------------------------------------- payload codecs

TEST(NetFrame, ScoreRequestRoundTripsBitExactly) {
  const ScoreRequest req = make_request(7);
  const std::vector<std::uint8_t> wire = encode_score_request(req);
  const std::optional<ScoreRequest> back = decode_score_request(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, req);
  // Doubles travel as IEEE-754 bit patterns — spot-check one exactly.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back->windows[0][0]),
            std::bit_cast<std::uint64_t>(req.windows[0][0]));
}

TEST(NetFrame, ScoreResultRoundTripsBitExactly) {
  ScoreResult result;
  result.outcome = 1;
  result.verdict = true;
  result.epoch_id = 42;
  result.latency_ns = 123456789;
  result.scores = {0.1, 0.2, 0.999999999999, -0.0};
  const std::optional<ScoreResult> back = decode_score_result(encode_score_result(result));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, result);
}

TEST(NetFrame, VerdictResultRoundTripsBitExactly) {
  // Decision counts straddling the byte-packing boundaries: empty, less
  // than one byte, exactly one byte, ragged tail.
  for (const std::size_t n : {std::size_t{0}, std::size_t{5}, std::size_t{8},
                              std::size_t{13}, std::size_t{64}}) {
    rng::Xoshiro256ss gen(n);
    VerdictResult result;
    result.outcome = 1;
    result.verdict = n % 2 == 0;
    result.epoch_id = 7 + n;
    result.latency_ns = 987654321;
    result.decisions.resize(n);
    for (std::size_t i = 0; i < n; ++i) result.decisions[i] = gen.bernoulli(0.5);
    const std::optional<VerdictResult> back =
        decode_verdict_result(encode_verdict_result(result));
    ASSERT_TRUE(back.has_value()) << n;
    EXPECT_EQ(*back, result) << n;
  }
}

TEST(NetFrame, VerdictResultRejectsTruncationAndTrailingGarbage) {
  VerdictResult result;
  result.decisions = {true, false, true, true, false, true, false, true, true};
  const std::vector<std::uint8_t> wire = encode_verdict_result(result);
  for (const std::size_t cut : {std::size_t{1}, wire.size() / 2, wire.size() - 1}) {
    const std::vector<std::uint8_t> truncated(wire.begin(),
                                              wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_verdict_result(truncated).has_value()) << "cut at " << cut;
  }
  std::vector<std::uint8_t> trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(decode_verdict_result(trailing).has_value());
  EXPECT_FALSE(decode_verdict_result({}).has_value());
}

TEST(NetFrame, VerdictResultRejectsNonzeroPadBits) {
  // 9 decisions -> 2 bytes, 7 pad bits in the tail byte. A sender that
  // sets any of them is smuggling out-of-contract state; reject.
  VerdictResult result;
  result.decisions.assign(9, true);
  std::vector<std::uint8_t> wire = encode_verdict_result(result);
  ASSERT_TRUE(decode_verdict_result(wire).has_value());
  wire.back() |= 0x80;  // highest pad bit of the tail byte
  EXPECT_FALSE(decode_verdict_result(wire).has_value());
}

TEST(NetFrame, VerdictResultRejectsHostileDecisionCount) {
  // Huge declared n_decisions (u32 at offset 20) must be rejected by
  // arithmetic against the actual payload size, never by allocating.
  VerdictResult result;
  result.decisions = {true, false};
  std::vector<std::uint8_t> wire = encode_verdict_result(result);
  for (std::size_t i = 0; i < 4; ++i) wire[20 + i] = 0xFF;
  EXPECT_FALSE(decode_verdict_result(wire).has_value());
}

TEST(NetFrame, ErrorBodyRoundTrips) {
  ErrorBody body;
  body.code = ErrorCode::kShed;
  body.message = "request queue full; retry later";
  const std::optional<ErrorBody> back = decode_error(encode_error(body));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, body);

  const std::optional<ErrorBody> empty = decode_error(encode_error(ErrorBody{}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->message.empty());
}

TEST(NetFrame, ScoreRequestPayloadSizeIsExactAndItsFrameRoundTrips) {
  // 20 fixed bytes (view, reserved u8 + u16, period, deadline, window
  // count, width) plus 8 per double — and the frame writer produces the
  // same payload behind a valid header, bit for bit.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 1}, {1, 16}, {3, 8}, {16, 16}, {200, 5}};
  for (const auto& [n_windows, width] : shapes) {
    const ScoreRequest req = make_request(n_windows * 31 + width, n_windows, width);
    const std::vector<std::uint8_t> payload = encode_score_request(req);
    EXPECT_EQ(payload.size(), kScoreRequestFixedSize + 8 * n_windows * width);

    std::vector<std::uint8_t> wire;
    append_score_request(FrameType::kVerdict, 77, req, wire);
    ASSERT_EQ(wire.size(), kHeaderSize + payload.size());
    FrameDecoder decoder;
    decoder.feed(wire);
    const std::optional<Frame> frame = decoder.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, FrameType::kVerdict);
    EXPECT_EQ(frame->request_id, 77u);
    EXPECT_EQ(frame->payload, payload);
    const std::optional<ScoreRequest> back = decode_score_request(frame->payload);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, req);
  }
}

TEST(NetFrame, InPlaceWritersCoalesceIntoOneBufferAndMatchPayloadEncoders) {
  // Several writers appending to one buffer (how the server batches a
  // connection's replies) must yield back-to-back frames whose payloads
  // are exactly the payload-only encodings.
  ScoreResult result;
  result.outcome = 1;
  result.verdict = true;
  result.epoch_id = 9;
  result.latency_ns = 4242;
  result.scores = {0.25, -0.0, 1e-300};
  VerdictResult verdict;
  verdict.outcome = 1;
  verdict.epoch_id = 3;
  verdict.decisions = {true, false, true, true, false, false, false, true, true};
  const ErrorBody error{ErrorCode::kShed, "request queue full; retry later"};
  const std::vector<std::uint8_t> ping = {0x5A, 0xA5};

  std::vector<std::uint8_t> wire = {0xEE};
  append_score_result(1, result, wire);
  append_verdict_result(2, verdict, wire);
  append_error(3, error, wire);
  append_frame(FrameType::kPong, 4, ping, wire);
  append_frame(FrameType::kStats, 5, {}, wire);
  EXPECT_EQ(wire[0], 0xEE);

  const std::vector<Frame> want = {
      {FrameType::kScoreResult, 1, encode_score_result(result)},
      {FrameType::kVerdictResult, 2, encode_verdict_result(verdict)},
      {FrameType::kError, 3, encode_error(error)},
      {FrameType::kPong, 4, ping},
      {FrameType::kStats, 5, {}},
  };
  FrameDecoder decoder;
  decoder.feed(std::span<const std::uint8_t>(wire.data() + 1, wire.size() - 1));
  for (const Frame& frame : want) {
    const std::optional<Frame> got = decoder.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, frame);
  }
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_EQ(decode_score_result(want[0].payload), result);
  EXPECT_EQ(decode_verdict_result(want[1].payload), verdict);
  EXPECT_EQ(decode_error(want[2].payload), error);
}

TEST(NetFrame, DecodersRejectTruncationAndTrailingGarbage) {
  const std::vector<std::uint8_t> wire = encode_score_request(make_request(3));
  for (const std::size_t cut : {std::size_t{1}, wire.size() / 2, wire.size() - 1}) {
    const std::vector<std::uint8_t> truncated(wire.begin(),
                                              wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_score_request(truncated).has_value()) << "cut at " << cut;
  }
  std::vector<std::uint8_t> trailing = wire;
  trailing.push_back(0);
  EXPECT_FALSE(decode_score_request(trailing).has_value());
  EXPECT_FALSE(decode_score_request({}).has_value());
  EXPECT_FALSE(decode_score_result({}).has_value());
  EXPECT_FALSE(decode_error({}).has_value());
}

TEST(NetFrame, DecodersRejectHostileLengthFields) {
  // A huge declared window count must be rejected by arithmetic, never by
  // attempting the allocation. n_windows lives at payload offset 12.
  std::vector<std::uint8_t> wire = encode_score_request(make_request(3));
  for (std::size_t i = 0; i < 4; ++i) wire[12 + i] = 0xFF;
  EXPECT_FALSE(decode_score_request(wire).has_value());

  // Same for a ScoreResult score count (offset 20).
  ScoreResult result;
  result.scores = {1.0, 2.0};
  std::vector<std::uint8_t> rw = encode_score_result(result);
  for (std::size_t i = 0; i < 4; ++i) rw[20 + i] = 0xFF;
  EXPECT_FALSE(decode_score_result(rw).has_value());
}

TEST(NetFrame, ScoreRequestRejectsDimensionsWhoseProductWraps) {
  // n_windows=2^31, width=2^30: the 64-bit product n_windows*width*8 is
  // exactly 2^64 ≡ 0, which equals remaining()=0 for a 20-byte payload.
  // A product-shaped size check passes and the decoder then attempts a
  // multi-GiB allocation — the check must be division-shaped instead.
  std::vector<std::uint8_t> wire = encode_score_request(make_request(5, 1, 1));
  wire.resize(20);  // header only: view/pad/period/deadline/n_windows/width
  const auto put32 = [&wire](std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) wire[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put32(12, 0x80000000u);  // n_windows = 2^31
  put32(16, 0x40000000u);  // width = 2^30
  EXPECT_FALSE(decode_score_request(wire).has_value());
}

TEST(NetFrame, PayloadDecoderFuzzNeverCrashes) {
  // Random bytes through every payload decoder: any outcome but UB/throw
  // is correct (ASan/UBSan in CI make violations fatal).
  rng::Xoshiro256ss gen(0xF422);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> bytes(gen.below(96));
    for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(gen() & 0xFF);
    (void)decode_score_request(bytes);
    (void)decode_score_result(bytes);
    (void)decode_verdict_result(bytes);
    (void)decode_error(bytes);
    (void)serve::deserialize_snapshot(bytes);
  }
  // Mutated valid payloads: flip one byte anywhere; must decode or reject,
  // never crash.
  const std::vector<std::uint8_t> valid = encode_score_request(make_request(11));
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<std::uint8_t> mutant = valid;
    mutant[gen.below(mutant.size())] ^= static_cast<std::uint8_t>(1 + (gen() & 0xFF));
    (void)decode_score_request(mutant);
  }
  // The Stats payload of a snapshot with 2 epochs, mutated the same way.
  serve::ServiceStatsSnapshot snap;
  snap.scored = 9;
  snap.per_epoch_faults[1].faults = 4;
  snap.per_epoch_faults[2].bit_flips[7] = 1;
  snap.per_epoch_verdicts[1] = 2;
  snap.per_epoch_verdicts[2] = 5;
  const std::vector<std::uint8_t> stats = serve::serialize(snap);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> mutant = stats;
    mutant[gen.below(mutant.size())] ^= static_cast<std::uint8_t>(1 + (gen() & 0xFF));
    (void)serve::deserialize_snapshot(mutant);
  }
}

// ------------------------------------------------------------- FrameDecoder

TEST(NetFrame, DecoderHandlesSingleCompleteFrame) {
  Frame frame;
  frame.type = FrameType::kScore;
  frame.request_id = 77;
  frame.payload = encode_score_request(make_request(5));
  FrameDecoder decoder;
  decoder.feed(wire_of(frame));
  const std::optional<Frame> out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_EQ(decoder.buffered(), 0u);
  EXPECT_FALSE(decoder.failed());
}

TEST(NetFrame, DecoderReassemblesUnderArbitraryFragmentation) {
  // Property: for ANY chunking of the byte stream, the decoded frame
  // sequence equals the encoded one. 64 random fragmentations plus the
  // pathological one-byte-at-a-time case.
  std::vector<Frame> frames;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Frame f;
    f.type = i % 2 == 0 ? FrameType::kScore : FrameType::kPing;
    f.request_id = i;
    if (f.type == FrameType::kScore) {
      f.payload = encode_score_request(make_request(i, 1 + i % 4, 4));
    }
    frames.push_back(std::move(f));
  }
  std::vector<std::uint8_t> stream;
  for (const Frame& f : frames) encode_frame(f, stream);

  for (std::uint64_t seed = 0; seed < 65; ++seed) {
    rng::Xoshiro256ss gen(seed);
    FrameDecoder decoder;
    std::vector<Frame> decoded;
    std::size_t at = 0;
    while (at < stream.size()) {
      // seed 0: one byte at a time; otherwise random chunks up to 96 bytes.
      const std::size_t chunk =
          seed == 0 ? 1
                    : std::min(stream.size() - at, std::size_t{1} + gen.below(96));
      decoder.feed(std::span<const std::uint8_t>(stream.data() + at, chunk));
      at += chunk;
      while (std::optional<Frame> f = decoder.next()) decoded.push_back(std::move(*f));
    }
    ASSERT_FALSE(decoder.failed()) << "seed " << seed;
    EXPECT_EQ(decoded, frames) << "seed " << seed;
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(NetFrame, DecoderHandlesCoalescedFramesInOneFeed) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < 50; ++i) {
    Frame f;
    f.type = FrameType::kPong;
    f.request_id = i;
    f.payload = {static_cast<std::uint8_t>(i)};
    encode_frame(f, stream);
  }
  FrameDecoder decoder;
  decoder.feed(stream);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const std::optional<Frame> f = decoder.next();
    ASSERT_TRUE(f.has_value()) << i;
    EXPECT_EQ(f->request_id, i);
  }
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(NetFrame, DecoderRejectsGarbageHeadersStickily) {
  const struct {
    const char* what;
    std::size_t offset;
    std::uint8_t value;
  } cases[] = {
      {"bad magic", 0, 0x00},
      {"bad version", 4, 99},
      {"unknown type", 5, 0xEE},
      {"reserved bits", 6, 1},
  };
  for (const auto& c : cases) {
    Frame frame;
    frame.type = FrameType::kPing;
    std::vector<std::uint8_t> wire = wire_of(frame);
    wire[c.offset] = c.value;
    FrameDecoder decoder;
    decoder.feed(wire);
    EXPECT_FALSE(decoder.next().has_value()) << c.what;
    EXPECT_TRUE(decoder.failed()) << c.what;
    EXPECT_FALSE(decoder.error().empty()) << c.what;
    // Sticky: a valid frame after the poison is ignored.
    decoder.feed(wire_of(Frame{}));
    EXPECT_FALSE(decoder.next().has_value()) << c.what;
    EXPECT_TRUE(decoder.failed()) << c.what;
  }
}

TEST(NetFrame, DecoderRejectsOversizedPayloadBeforeBuffering) {
  // Declare a payload over the limit: the decoder must fail from the
  // header alone, without waiting for (or allocating) the claimed bytes.
  FrameDecoder decoder(/*max_payload=*/1024);
  std::vector<std::uint8_t> header;
  Frame frame;
  frame.payload.assign(16, 0);  // real bytes don't matter
  encode_frame(frame, header);
  header[16] = 0xFF;  // payload length u32 at offset 16 -> huge
  header[17] = 0xFF;
  header[18] = 0xFF;
  header[19] = 0x7F;
  decoder.feed(header);
  EXPECT_FALSE(decoder.next().has_value());
  EXPECT_TRUE(decoder.failed());
  EXPECT_NE(decoder.error().find("exceeds limit"), std::string::npos);
}

TEST(NetFrame, DecoderFuzzRandomBytesNeverCrash) {
  rng::Xoshiro256ss gen(0xDEC0DE);
  for (int iter = 0; iter < 300; ++iter) {
    FrameDecoder decoder(4096);
    const std::size_t total = 1 + gen.below(512);
    std::size_t fed = 0;
    while (fed < total && !decoder.failed()) {
      std::vector<std::uint8_t> chunk(1 + gen.below(64));
      for (std::uint8_t& b : chunk) b = static_cast<std::uint8_t>(gen() & 0xFF);
      // Bias the first bytes toward the real magic so some iterations get
      // past the header check into length/payload handling.
      if (fed == 0 && gen.bernoulli(0.5) && chunk.size() >= 6) {
        chunk[0] = 0x44;
        chunk[1] = 0x4D;
        chunk[2] = 0x48;
        chunk[3] = 0x53;
        chunk[4] = kProtocolVersion;
        chunk[5] = static_cast<std::uint8_t>(gen.below(9));  // all frame types incl. kVerdict*
      }
      decoder.feed(chunk);
      fed += chunk.size();
      while (decoder.next().has_value()) {
      }
    }
  }
}

TEST(NetFrame, EncodeFrameAppendsWithoutDisturbingPriorBytes) {
  std::vector<std::uint8_t> out = {0xAA, 0xBB};
  Frame frame;
  frame.type = FrameType::kStats;
  frame.request_id = 5;
  encode_frame(frame, out);
  EXPECT_EQ(out.size(), 2 + kHeaderSize);
  EXPECT_EQ(out[0], 0xAA);
  EXPECT_EQ(out[1], 0xBB);
  FrameDecoder decoder;
  decoder.feed(std::span<const std::uint8_t>(out.data() + 2, out.size() - 2));
  const std::optional<Frame> back = decoder.next();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, frame);
}

}  // namespace
}  // namespace shmd::net
