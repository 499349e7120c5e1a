// Property tests for the evaluation wire protocol, in the store-codec
// style: a frame survives a round trip bit-for-bit, and every prefix
// truncation, trailing byte, bit flip, version bump, or kind mismatch
// is rejected outright -- never decoded into a wrong frame. The
// EvalRequest payload codec is held to the same standard, including
// the config override surviving with an identical simConfigHash.
#include "svc/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace sps::svc {
namespace {

std::vector<uint8_t>
frameBytes(FrameKind kind, const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> out;
    encodeFrame(kind, payload, &out);
    return out;
}

TEST(EvalProtocolTest, FrameRoundTripEveryKind)
{
    for (FrameKind kind :
         {FrameKind::EvalRequest, FrameKind::EvalResult,
          FrameKind::Error, FrameKind::MetricsRequest,
          FrameKind::MetricsReply}) {
        std::vector<uint8_t> payload{1, 2, 3, 0xff, 0};
        std::vector<uint8_t> bytes = frameBytes(kind, payload);
        EXPECT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());
        Frame back;
        ASSERT_TRUE(decodeFrame(bytes, &back));
        EXPECT_EQ(back.kind, kind);
        EXPECT_EQ(back.payload, payload);
    }
}

TEST(EvalProtocolTest, EmptyPayloadRoundTrips)
{
    std::vector<uint8_t> bytes =
        frameBytes(FrameKind::MetricsRequest, {});
    Frame back;
    ASSERT_TRUE(decodeFrame(bytes, &back));
    EXPECT_EQ(back.kind, FrameKind::MetricsRequest);
    EXPECT_TRUE(back.payload.empty());
}

TEST(EvalProtocolTest, EveryPrefixTruncationRejected)
{
    std::vector<uint8_t> bytes =
        frameBytes(FrameKind::EvalResult, {10, 20, 30, 40});
    for (size_t n = 0; n < bytes.size(); ++n) {
        Frame out;
        EXPECT_FALSE(decodeFrame(
            std::vector<uint8_t>(bytes.begin(), bytes.begin() + n),
            &out))
            << "frame truncated to " << n << " bytes decoded";
    }
}

TEST(EvalProtocolTest, TrailingBytesRejected)
{
    std::vector<uint8_t> bytes =
        frameBytes(FrameKind::Error, {1, 2, 3});
    bytes.push_back(0);
    Frame out;
    EXPECT_FALSE(decodeFrame(bytes, &out));
}

TEST(EvalProtocolTest, EveryBitFlipRejectedOrTheTruth)
{
    std::vector<uint8_t> payload{0x55, 0xaa, 0x00, 0x7f};
    std::vector<uint8_t> bytes =
        frameBytes(FrameKind::EvalResult, payload);
    for (size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<uint8_t> damaged = bytes;
            damaged[byte] ^= static_cast<uint8_t>(1u << bit);
            Frame out;
            // A flip anywhere must never yield a *different* frame:
            // either the decode fails (magic/version/kind/length/
            // checksum/payload flips) or the decoded frame is still
            // the original (flips in the reserved header word).
            if (decodeFrame(damaged, &out)) {
                EXPECT_EQ(out.kind, FrameKind::EvalResult)
                    << "byte " << byte << " bit " << bit;
                EXPECT_EQ(out.payload, payload)
                    << "byte " << byte << " bit " << bit;
            }
        }
    }
}

TEST(EvalProtocolTest, VersionMismatchRejected)
{
    std::vector<uint8_t> bytes = frameBytes(FrameKind::Error, {1});
    // Header layout: magic u32, version u32 at offset 4.
    bytes[4] = static_cast<uint8_t>(kProtocolVersion + 1);
    Frame out;
    EXPECT_FALSE(decodeFrame(bytes, &out));
}

TEST(EvalProtocolTest, UnknownKindRejected)
{
    std::vector<uint8_t> bytes = frameBytes(FrameKind::Error, {1});
    // Kind u32 lives at offset 8; 0, 99, and the retired stats kinds
    // 4 and 5 are not assigned.
    for (uint8_t bad : {uint8_t{0}, uint8_t{4}, uint8_t{5}, uint8_t{99}}) {
        std::vector<uint8_t> damaged = bytes;
        damaged[8] = bad;
        Frame out;
        EXPECT_FALSE(decodeFrame(damaged, &out));
    }
}

TEST(EvalProtocolTest, LyingLengthFieldRejected)
{
    std::vector<uint8_t> bytes =
        frameBytes(FrameKind::EvalResult, {1, 2, 3, 4});
    // Payload length u64 lives at offset 16. Claiming one byte fewer
    // or more than the buffer holds must fail, not mis-slice.
    for (int delta : {-1, 1}) {
        std::vector<uint8_t> damaged = bytes;
        damaged[16] = static_cast<uint8_t>(4 + delta);
        Frame out;
        EXPECT_FALSE(decodeFrame(damaged, &out));
    }
}

TEST(EvalProtocolTest, OversizedAnnouncedLengthRejected)
{
    std::vector<uint8_t> bytes = frameBytes(FrameKind::Error, {});
    // Announce a payload beyond kMaxFramePayloadBytes (2^31 > 2^30):
    // offset 16 is the little-endian u64 length field.
    bytes[16 + 3] = 0x80;
    Frame out;
    EXPECT_FALSE(decodeFrame(bytes, &out));
}

TEST(EvalProtocolTest, EvalRequestRoundTripDefaults)
{
    EvalPoint pt;
    pt.app = "RENDER";
    pt.size = {32, 10};
    store::ByteWriter w;
    encodeEvalRequest(pt, &w);
    EvalPoint back;
    ASSERT_TRUE(decodeEvalRequest(w.bytes(), &back));
    EXPECT_EQ(back.app, "RENDER");
    EXPECT_EQ(back.size.clusters, 32);
    EXPECT_EQ(back.size.alusPerCluster, 10);
    EXPECT_FALSE(back.config.has_value());
}

TEST(EvalProtocolTest, EvalRequestRoundTripWithConfigOverride)
{
    EvalPoint pt;
    pt.app = "DEPTH";
    pt.size = {16, 5};
    sim::SimConfig cfg;
    cfg.params.h = 0.123;
    cfg.params.b = 64;
    cfg.memConfig.latencyCycles = 77;
    cfg.hostIssueCycles = 3;
    cfg.scoreboardDepth = 9;
    cfg.energyConfig.idleFraction = 0.25;
    pt.config = cfg;

    store::ByteWriter w;
    encodeEvalRequest(pt, &w);
    EvalPoint back;
    ASSERT_TRUE(decodeEvalRequest(w.bytes(), &back));
    ASSERT_TRUE(back.config.has_value());
    EXPECT_EQ(back.config->params.b, 64);
    EXPECT_EQ(back.config->memConfig.latencyCycles, 77);
    EXPECT_EQ(back.config->hostIssueCycles, 3);
    EXPECT_EQ(back.config->scoreboardDepth, 9);
    // The decoded override keys identically: doubles ride the wire as
    // raw bit patterns, so the hash that addresses the store matches.
    EXPECT_EQ(simConfigHash(*back.config), simConfigHash(cfg));
    EXPECT_EQ(simConfigHash(effectiveSimConfig(back)),
              simConfigHash(effectiveSimConfig(pt)));
}

TEST(EvalProtocolTest, EvalRequestEveryTruncationRejected)
{
    EvalPoint pt;
    pt.app = "FFT";
    pt.size = {8, 5};
    pt.config = sim::SimConfig{};
    store::ByteWriter w;
    encodeEvalRequest(pt, &w);
    const std::vector<uint8_t> &bytes = w.bytes();
    for (size_t n = 0; n < bytes.size(); ++n) {
        EvalPoint out;
        EXPECT_FALSE(decodeEvalRequest(
            std::vector<uint8_t>(bytes.begin(), bytes.begin() + n),
            &out))
            << "request truncated to " << n << " bytes decoded";
    }
    EvalPoint out;
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(decodeEvalRequest(padded, &out));
}

TEST(EvalProtocolTest, ErrorStringRoundTrip)
{
    store::ByteWriter w;
    encodeErrorString("unknown app: BOGUS", &w);
    std::string back;
    ASSERT_TRUE(decodeErrorString(w.bytes(), &back));
    EXPECT_EQ(back, "unknown app: BOGUS");
}

obs::MetricsSnapshot
sampleSnapshot()
{
    // One of each kind, with labels, help, and a populated histogram
    // -- the shape a live daemon scrape actually carries.
    obs::MetricsRegistry reg;
    obs::Counter requests;
    reg.expose("sps_requests_total", "", "requests", &requests);
    requests.inc(42);
    reg.gauge("sps_queue_depth", "app=\"DEPTH\"", "depth")->set(-3);
    obs::Histogram *h =
        reg.histogram("sps_request_duration_us", "tier=\"compute\"");
    for (uint64_t v : {1ull, 7ull, 7ull, 900ull, 1000000ull})
        h->observe(v);
    return reg.snapshot();
}

TEST(EvalProtocolTest, MetricsSnapshotRoundTrip)
{
    obs::MetricsSnapshot snap = sampleSnapshot();
    store::ByteWriter w;
    encodeMetricsSnapshot(snap, &w);
    obs::MetricsSnapshot back;
    ASSERT_TRUE(decodeMetricsSnapshot(w.bytes(), &back));

    ASSERT_EQ(back.metrics.size(), snap.metrics.size());
    for (size_t i = 0; i < snap.metrics.size(); ++i) {
        const obs::MetricSample &a = snap.metrics[i];
        const obs::MetricSample &b = back.metrics[i];
        EXPECT_EQ(b.name, a.name);
        EXPECT_EQ(b.labels, a.labels);
        EXPECT_EQ(b.help, a.help);
        EXPECT_EQ(b.kind, a.kind);
        EXPECT_EQ(b.value, a.value);
        EXPECT_EQ(b.buckets, a.buckets);
        EXPECT_EQ(b.count, a.count);
        EXPECT_EQ(b.sum, a.sum);
    }
    // The decoded snapshot renders identically to the original, so a
    // remote scrape and a --metrics-out dump of the same instant would
    // be byte-equal.
    EXPECT_EQ(obs::renderPrometheus(back), obs::renderPrometheus(snap));
    EXPECT_EQ(obs::renderJson(back), obs::renderJson(snap));
}

TEST(EvalProtocolTest, EmptyMetricsSnapshotRoundTrips)
{
    store::ByteWriter w;
    encodeMetricsSnapshot(obs::MetricsSnapshot{}, &w);
    obs::MetricsSnapshot back;
    back.metrics.emplace_back(); // must be cleared by the decoder
    ASSERT_TRUE(decodeMetricsSnapshot(w.bytes(), &back));
    EXPECT_TRUE(back.metrics.empty());
}

TEST(EvalProtocolTest, MetricsSnapshotEveryTruncationRejected)
{
    store::ByteWriter w;
    encodeMetricsSnapshot(sampleSnapshot(), &w);
    const std::vector<uint8_t> &bytes = w.bytes();
    for (size_t n = 0; n < bytes.size(); ++n) {
        obs::MetricsSnapshot out;
        EXPECT_FALSE(decodeMetricsSnapshot(
            std::vector<uint8_t>(bytes.begin(), bytes.begin() + n),
            &out))
            << "snapshot truncated to " << n << " bytes decoded";
    }
    obs::MetricsSnapshot out;
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(decodeMetricsSnapshot(padded, &out));
}

TEST(EvalProtocolTest, MetricsSnapshotUnknownKindRejected)
{
    obs::MetricsRegistry reg;
    obs::Counter a;
    reg.expose("sps_a", "", "", &a);
    store::ByteWriter w;
    encodeMetricsSnapshot(reg.snapshot(), &w);
    std::vector<uint8_t> bytes = w.bytes();
    // Layout: u64 metric count, then str name (u64 len + bytes), str
    // labels, str help, u32 kind. For a single label-less, help-less
    // counter named "sps_a" the kind field sits at a fixed offset.
    size_t kind_at = 8 + (8 + 5) + 8 + 8;
    ASSERT_LT(kind_at + 4, bytes.size());
    ASSERT_EQ(bytes[kind_at],
              static_cast<uint8_t>(obs::MetricKind::Counter));
    bytes[kind_at] = 99;
    obs::MetricsSnapshot out;
    EXPECT_FALSE(decodeMetricsSnapshot(bytes, &out));
}

#ifndef _WIN32

TEST(EvalProtocolTest, SocketRoundTripAndCleanEof)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::vector<uint8_t> payload{9, 8, 7};
    ASSERT_TRUE(writeFrame(fds[0], FrameKind::EvalResult, payload));
    Frame back;
    EXPECT_EQ(readFrame(fds[1], &back), ReadStatus::Ok);
    EXPECT_EQ(back.kind, FrameKind::EvalResult);
    EXPECT_EQ(back.payload, payload);
    ::close(fds[0]);
    // Peer closed at a frame boundary: clean EOF, not an error.
    EXPECT_EQ(readFrame(fds[1], &back), ReadStatus::Eof);
    ::close(fds[1]);
}

TEST(EvalProtocolTest, SocketGarbageIsMalformed)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const char junk[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fds[0], junk, sizeof junk, 0), 0);
    ::close(fds[0]);
    Frame out;
    EXPECT_EQ(readFrame(fds[1], &out), ReadStatus::Malformed);
    ::close(fds[1]);
}

TEST(EvalProtocolTest, SocketMidFrameEofIsMalformed)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::vector<uint8_t> bytes =
        frameBytes(FrameKind::EvalResult, {1, 2, 3, 4, 5});
    // Send all but the last byte, then hang up mid-frame.
    ASSERT_GT(::send(fds[0], bytes.data(), bytes.size() - 1, 0), 0);
    ::close(fds[0]);
    Frame out;
    EXPECT_EQ(readFrame(fds[1], &out), ReadStatus::Malformed);
    ::close(fds[1]);
}

#endif // !_WIN32

} // namespace
} // namespace sps::svc
