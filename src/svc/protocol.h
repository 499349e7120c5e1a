/**
 * @file
 * The evaluation service's wire protocol: length-prefixed, versioned
 * binary frames over a stream socket, reusing the store codec
 * primitives (store::ByteWriter / store::ByteReader) so the same
 * discipline that protects disk entries protects the wire -- every
 * frame carries a magic, the protocol version, its kind, the payload
 * length, and a store::headerChecksum over header and payload both --
 * the one checksum rule of store entries too -- and a truncated,
 * bit-flipped, mis-kinded, or version-mismatched frame is rejected
 * outright, never decoded into a wrong result.
 *
 * Conversation shape (client-initiated, ordered per connection):
 *   EvalRequest    -> EvalResult | Error
 *   MetricsRequest -> MetricsReply | Error
 * Responses come back in request order, so a client may pipeline any
 * number of requests before reading the first response; the server
 * evaluates pipelined requests concurrently through the shared
 * svc::EvalService (cross-client dedup included) and only *delivery*
 * is ordered.
 *
 * An EvalRequest carries an EvalPoint -- app name, machine size, and
 * an optional explicit sim::SimConfig override (every field, doubles
 * as raw IEEE-754 bit patterns) -- so a remote client can sweep
 * non-default configurations and the server keys them exactly like
 * local submissions. An EvalResult payload is the store codec's
 * encoded sim::SimResult, bit-identical to what the server computed,
 * which is what keeps client-side CSVs byte-identical to in-process
 * runs.
 */
#ifndef SPS_SVC_PROTOCOL_H
#define SPS_SVC_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "store/codec.h"
#include "svc/eval_service.h"

namespace sps::svc {

/** "SPSP" little-endian: distinct from the store entry magic. */
inline constexpr uint32_t kProtocolMagic = 0x50535053;

/**
 * Version of the frame format *and* of every payload codec below.
 * History:
 *  1 = initial format (EvalRequest with optional SimConfig override,
 *      EvalResult as store-codec SimResult, Error, stats rows).
 *  2 = adds MetricsRequest/MetricsReply (encoded obs::MetricsSnapshot).
 *      Bumped because an unknown frame kind is Malformed -- a v2
 *      client's MetricsRequest would otherwise kill its connection to
 *      a v1 server mid-conversation instead of failing the version
 *      check up front.
 *  3 = drops StatsRequest/StatsReply (kinds 4 and 5, now unassigned):
 *      MetricsReply carries every count the stats rows did. Bumped so
 *      a v2 client's StatsRequest fails the version check instead of
 *      arriving as an unknown kind.
 *  4 = the EvalRequest config override drops five SimConfig leaves
 *      (tech.clock_fo4, tech.mem_bw_gbs, tech.host_bw_gbs,
 *      mem_config.timing.t_col, uc_config.load_cycles_per_instruction)
 *      and carries 55. Bumped because a v3 override would otherwise
 *      decode with its leaves shifted. No result payload changed, so
 *      store::kStoreSchemaVersion stays; sim entries re-key through
 *      simConfigHash.
 *  5 = the header's checksum is store::headerChecksum (XXH64 of the
 *      payload seeded with XXH64 of the 24 prefix bytes) instead of
 *      FNV-1a over the prefix chained with the payload. No payload
 *      changed; bumped so a v4 peer fails the version check instead
 *      of reading every frame as a checksum mismatch.
 */
inline constexpr uint32_t kProtocolVersion = 5;

/** Frame header size: magic, version, kind, reserved, payload
 *  length (u64), checksum (u64) -- the same 32-byte shape as a store
 *  entry header, checked by the same rule: store::headerChecksum of
 *  the preceding store::kHeaderPrefixBytes header bytes and the
 *  payload, so a bit flip anywhere in the frame (the kind field
 *  included) is caught. */
inline constexpr size_t kFrameHeaderBytes = 32;

/** Upper bound on a payload a peer may announce; a length beyond it
 *  is malformed (protects the reader from allocating garbage). */
inline constexpr uint64_t kMaxFramePayloadBytes = uint64_t(1) << 30;

/** Kinds 4 and 5 (the retired stats pair) stay unassigned. */
enum class FrameKind : uint32_t {
    EvalRequest = 1,    ///< payload: encodeEvalRequest
    EvalResult = 2,     ///< payload: store::encodeSimResult
    Error = 3,          ///< payload: one string (the error message)
    MetricsRequest = 6, ///< payload: empty
    MetricsReply = 7,   ///< payload: encodeMetricsSnapshot
};

/** One decoded frame. */
struct Frame
{
    FrameKind kind = FrameKind::Error;
    std::vector<uint8_t> payload;
};

// --- Byte-level frame codec (what the property tests exercise). ---

/** Append one complete frame (header + payload) to `out`. */
void encodeFrame(FrameKind kind, const std::vector<uint8_t> &payload,
                 std::vector<uint8_t> *out);

/**
 * Decode exactly one frame from `bytes`. False on truncation (any
 * prefix), trailing bytes, bad magic/version/kind, a length field
 * that disagrees with the buffer, or a checksum mismatch.
 */
bool decodeFrame(const std::vector<uint8_t> &bytes, Frame *out);

// --- Payload codecs (field order is part of kProtocolVersion). ---

/**
 * App name, machine size, then the optional config override:
 * sim::SimConfig's field table (common/fields.h) walked by the store
 * codec, doubles as raw bit patterns, so simConfigHash(decoded) ==
 * simConfigHash(original) exactly. Reordering or retyping a table
 * entry is a schema change that needs a kProtocolVersion bump (it
 * also re-keys the store through simConfigHash).
 */
void encodeEvalRequest(const EvalPoint &pt, store::ByteWriter *w);
/** False on truncation, trailing bytes, or malformed fields. */
bool decodeEvalRequest(const std::vector<uint8_t> &bytes,
                       EvalPoint *out);

void encodeErrorString(const std::string &message,
                       store::ByteWriter *w);
bool decodeErrorString(const std::vector<uint8_t> &bytes,
                       std::string *out);

/**
 * A full obs::MetricsSnapshot -- every sample with its name, labels,
 * help, kind, and (for histograms) the raw per-bucket counts plus
 * count/sum. The *structured* snapshot crosses the wire, not rendered
 * text: the client renders Prometheus/JSON locally with the same
 * obs::render* functions the daemon uses for --metrics-out, and tests
 * assert on the numbers directly.
 */
void encodeMetricsSnapshot(const obs::MetricsSnapshot &snap,
                           store::ByteWriter *w);
bool decodeMetricsSnapshot(const std::vector<uint8_t> &bytes,
                           obs::MetricsSnapshot *out);

#ifndef _WIN32

// --- Socket I/O (POSIX). ---

/** Result of one blocking frame read. */
enum class ReadStatus {
    Ok,        ///< a verified frame was read into *out
    Eof,       ///< clean end of stream at a frame boundary
    Malformed, ///< truncation mid-frame, garbage, or I/O error
};

/** Write one frame; retries partial writes/EINTR. False on error
 *  (the peer vanished); never raises SIGPIPE. */
bool writeFrame(int fd, FrameKind kind,
                const std::vector<uint8_t> &payload);

/** Write bytes encodeFrame() already framed (a kept frame), as they
 *  are; same error handling as writeFrame(). */
bool writeFrameBytes(int fd, const std::vector<uint8_t> &frame);

/** Read and verify one frame; blocks until a full frame or EOF. */
ReadStatus readFrame(int fd, Frame *out);

#endif // !_WIN32

} // namespace sps::svc

#endif // SPS_SVC_PROTOCOL_H
