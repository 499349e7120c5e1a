#include "svc/protocol.h"

#ifndef _WIN32
#include <cerrno>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace sps::svc {

namespace {

bool
knownKind(uint32_t kind)
{
    switch (static_cast<FrameKind>(kind)) {
    case FrameKind::EvalRequest:
    case FrameKind::EvalResult:
    case FrameKind::Error:
    case FrameKind::MetricsRequest:
    case FrameKind::MetricsReply:
        return true;
    }
    return false;
}

/**
 * FNV-1a over the header prefix (magic through length, 24 bytes)
 * chained with the payload. Covering the header means a bit flip in
 * the *kind* field breaks the checksum too -- a damaged EvalResult
 * can never decode as a well-formed Error (or vice versa), which a
 * payload-only checksum would allow.
 */
uint64_t
frameChecksum(const uint8_t *prefix, const std::vector<uint8_t> &payload)
{
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](const uint8_t *d, size_t n) {
        for (size_t i = 0; i < n; ++i) {
            h ^= d[i];
            h *= 1099511628211ull;
        }
    };
    mix(prefix, kFrameHeaderBytes - 8);
    mix(payload.data(), payload.size());
    return h;
}

void
putFrameHeader(FrameKind kind, const std::vector<uint8_t> &payload,
               store::ByteWriter *w)
{
    size_t base = w->bytes().size();
    w->u32(kProtocolMagic);
    w->u32(kProtocolVersion);
    w->u32(static_cast<uint32_t>(kind));
    w->u32(0); // reserved
    w->u64(payload.size());
    w->u64(frameChecksum(w->bytes().data() + base, payload));
}

/**
 * Validate the six header fields. On success fills kind/length/
 * checksum; the caller still verifies the checksum once the payload
 * is in hand.
 */
bool
parseFrameHeader(const uint8_t *header, FrameKind *kind,
                 uint64_t *length, uint64_t *checksum)
{
    store::ByteReader r(header, kFrameHeaderBytes);
    uint32_t magic = 0, version = 0, kind_raw = 0, reserved = 0;
    if (!r.u32(&magic) || !r.u32(&version) || !r.u32(&kind_raw) ||
        !r.u32(&reserved) || !r.u64(length) || !r.u64(checksum))
        return false;
    if (magic != kProtocolMagic || version != kProtocolVersion ||
        !knownKind(kind_raw) || *length > kMaxFramePayloadBytes)
        return false;
    *kind = static_cast<FrameKind>(kind_raw);
    return true;
}

} // namespace

void
encodeFrame(FrameKind kind, const std::vector<uint8_t> &payload,
            std::vector<uint8_t> *out)
{
    store::ByteWriter header;
    putFrameHeader(kind, payload, &header);
    out->insert(out->end(), header.bytes().begin(),
                header.bytes().end());
    out->insert(out->end(), payload.begin(), payload.end());
}

bool
decodeFrame(const std::vector<uint8_t> &bytes, Frame *out)
{
    if (bytes.size() < kFrameHeaderBytes)
        return false;
    FrameKind kind;
    uint64_t length = 0, checksum = 0;
    if (!parseFrameHeader(bytes.data(), &kind, &length, &checksum))
        return false;
    if (bytes.size() != kFrameHeaderBytes + length)
        return false; // truncated payload or trailing bytes
    std::vector<uint8_t> payload(bytes.begin() + kFrameHeaderBytes,
                                 bytes.end());
    if (checksum != frameChecksum(bytes.data(), payload))
        return false;
    out->kind = kind;
    out->payload = std::move(payload);
    return true;
}

void
encodeEvalRequest(const EvalPoint &pt, store::ByteWriter *w)
{
    w->str(pt.app);
    store::encodeValue(pt.size, w);
    w->u8(pt.config ? 1 : 0);
    if (pt.config)
        store::encodeValue(*pt.config, w);
}

bool
decodeEvalRequest(const std::vector<uint8_t> &bytes, EvalPoint *out)
{
    store::ByteReader r(bytes);
    EvalPoint pt;
    uint8_t has_config = 0;
    if (!r.str(&pt.app) || !store::decodeValue(&r, &pt.size) ||
        !r.u8(&has_config))
        return false;
    if (has_config > 1)
        return false;
    if (has_config && !store::decodeValue(&r, &pt.config.emplace()))
        return false;
    if (!r.done())
        return false; // trailing bytes are as bad as missing ones
    *out = std::move(pt);
    return true;
}

void
encodeErrorString(const std::string &message, store::ByteWriter *w)
{
    w->str(message);
}

bool
decodeErrorString(const std::vector<uint8_t> &bytes, std::string *out)
{
    store::ByteReader r(bytes);
    return r.str(out) && r.done();
}

void
encodeMetricsSnapshot(const obs::MetricsSnapshot &snap,
                      store::ByteWriter *w)
{
    w->u64(snap.metrics.size());
    for (const auto &m : snap.metrics) {
        w->str(m.name);
        w->str(m.labels);
        w->str(m.help);
        w->u32(static_cast<uint32_t>(m.kind));
        if (m.kind == obs::MetricKind::Histogram) {
            w->u64(m.buckets.size());
            for (uint64_t b : m.buckets)
                w->u64(b);
            w->u64(m.count);
            w->u64(m.sum);
        } else {
            w->i64(m.value);
        }
    }
}

bool
decodeMetricsSnapshot(const std::vector<uint8_t> &bytes,
                      obs::MetricsSnapshot *out)
{
    store::ByteReader r(bytes);
    uint64_t n = 0;
    if (!r.u64(&n) || n > bytes.size())
        return false;
    obs::MetricsSnapshot snap;
    snap.metrics.reserve(static_cast<size_t>(n));
    for (uint64_t i = 0; i < n; ++i) {
        obs::MetricSample m;
        uint32_t kind = 0;
        if (!r.str(&m.name) || !r.str(&m.labels) || !r.str(&m.help) ||
            !r.u32(&kind))
            return false;
        switch (static_cast<obs::MetricKind>(kind)) {
        case obs::MetricKind::Counter:
        case obs::MetricKind::Gauge:
            m.kind = static_cast<obs::MetricKind>(kind);
            if (!r.i64(&m.value))
                return false;
            break;
        case obs::MetricKind::Histogram: {
            m.kind = obs::MetricKind::Histogram;
            uint64_t n_buckets = 0;
            if (!r.u64(&n_buckets) || n_buckets > bytes.size())
                return false;
            m.buckets.resize(static_cast<size_t>(n_buckets));
            for (auto &b : m.buckets)
                if (!r.u64(&b))
                    return false;
            if (!r.u64(&m.count) || !r.u64(&m.sum))
                return false;
            break;
        }
        default:
            return false; // unknown metric kind
        }
        snap.metrics.push_back(std::move(m));
    }
    if (!r.done())
        return false;
    out->metrics = std::move(snap.metrics);
    return true;
}

#ifndef _WIN32

namespace {

bool
writeAll(int fd, const uint8_t *data, size_t n)
{
    while (n > 0) {
        // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not
        // kill the daemon with SIGPIPE.
        ssize_t k = ::send(fd, data, n, MSG_NOSIGNAL);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += k;
        n -= static_cast<size_t>(k);
    }
    return true;
}

/** Read exactly n bytes; returns bytes read (short only at EOF/error). */
size_t
readAll(int fd, uint8_t *data, size_t n)
{
    size_t got = 0;
    while (got < n) {
        ssize_t k = ::read(fd, data + got, n - got);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (k == 0)
            break;
        got += static_cast<size_t>(k);
    }
    return got;
}

} // namespace

bool
writeFrame(int fd, FrameKind kind, const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> frame;
    frame.reserve(kFrameHeaderBytes + payload.size());
    encodeFrame(kind, payload, &frame);
    return writeFrameBytes(fd, frame);
}

bool
writeFrameBytes(int fd, const std::vector<uint8_t> &frame)
{
    return writeAll(fd, frame.data(), frame.size());
}

ReadStatus
readFrame(int fd, Frame *out)
{
    uint8_t header[kFrameHeaderBytes];
    size_t got = readAll(fd, header, sizeof header);
    if (got == 0)
        return ReadStatus::Eof;
    if (got != sizeof header)
        return ReadStatus::Malformed;
    FrameKind kind;
    uint64_t length = 0, checksum = 0;
    if (!parseFrameHeader(header, &kind, &length, &checksum))
        return ReadStatus::Malformed;
    std::vector<uint8_t> payload(static_cast<size_t>(length));
    if (readAll(fd, payload.data(), payload.size()) != payload.size())
        return ReadStatus::Malformed;
    if (checksum != frameChecksum(header, payload))
        return ReadStatus::Malformed;
    out->kind = kind;
    out->payload = std::move(payload);
    return ReadStatus::Ok;
}

#endif // !_WIN32

} // namespace sps::svc
