/**
 * @file
 * Versioned binary serialization for the persistent result store:
 * encode/decode of sched::CompiledKernel and sim::SimResult. The wire
 * format is little-endian, written byte-at-a-time so encodings are
 * deterministic across platforms, and doubles are carried as raw
 * IEEE-754 bit patterns so a decoded result is *bit-identical* to the
 * computed one (warm runs reproduce cold-run CSVs byte for byte).
 *
 * Structs are encoded by walking their field tables (common/fields.h):
 * each member's C++ type picks its encoding (encodeValue/decodeValue
 * below), so the byte layout is the tables' order.
 *
 * Every reader is bounds-checked: decoding a truncated or oversized
 * buffer fails cleanly (decode* returns false) instead of returning a
 * partially-filled result, so the store can treat any damaged entry
 * as a miss.
 */
#ifndef SPS_STORE_CODEC_H
#define SPS_STORE_CODEC_H

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/fields.h"
#include "sched/kernel_perf.h"
#include "sim/stats.h"

namespace sps::store {

/**
 * Schema version of the serialized payloads, stamped into every store
 * entry header. The payload layout is the field tables of
 * sched::CompiledKernel and sim::SimResult (and the structs nested in
 * it): reordering or retyping a table entry is a schema change, and
 * adding or removing one is too. Bump this with any of them; that
 * silently invalidates (misses) all previously persisted entries.
 * History:
 *  1 = initial format (CompiledKernel, SimResult with counters,
 *      energy report, bottleneck report, full timeline).
 *  2 = the entry header's checksum is headerChecksum (XXH64 over the
 *      24 prefix bytes and the payload) instead of FNV-1a over the
 *      payload alone. No payload byte changed; bumped so a version-1
 *      entry reads as corrupt and is recomputed, never checked by the
 *      wrong rule.
 */
inline constexpr uint32_t kStoreSchemaVersion = 2;

/** Header bytes before the checksum word in both 32-byte headers (a
 *  store entry's and a socket frame's): magic, version, kind, a
 *  reserved word and the u64 payload length. */
inline constexpr size_t kHeaderPrefixBytes = 24;

/**
 * The checksum word of both 32-byte headers: XXH64 (common/xxh64.h)
 * of the payload, seeded with XXH64 of the header's first
 * kHeaderPrefixBytes bytes. Covering the prefix means a flip in any
 * header field -- the kind and the reserved word included -- breaks
 * it as surely as a flip in the payload.
 */
uint64_t headerChecksum(const uint8_t *prefix,
                        const std::vector<uint8_t> &payload);

/** FNV-1a over a raw byte range: payload digest for golden pins and
 *  perfbench; not an entry checksum. */
uint64_t fnv1aBytes(const uint8_t *data, size_t n);

/** Little-endian byte-at-a-time encoder. */
class ByteWriter
{
  public:
    const std::vector<uint8_t> &bytes() const { return bytes_; }

    void
    u8(uint8_t v)
    {
        bytes_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            bytes_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void i64(int64_t v) { u64(static_cast<uint64_t>(v)); }
    void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }

    /** Raw IEEE-754 bit pattern (preserves -0.0, NaN payloads). */
    void
    f64(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }

  private:
    std::vector<uint8_t> bytes_;
};

/**
 * Bounds-checked little-endian decoder. Every getter returns false
 * (and stops consuming) once the buffer is exhausted; done() is true
 * only when every byte was consumed without error, so trailing
 * garbage is also rejected.
 */
class ByteReader
{
  public:
    ByteReader(const uint8_t *data, size_t n) : data_(data), n_(n) {}
    explicit ByteReader(const std::vector<uint8_t> &bytes)
        : data_(bytes.data()), n_(bytes.size())
    {
    }

    bool ok() const { return ok_; }
    bool done() const { return ok_ && pos_ == n_; }

    bool
    u8(uint8_t *out)
    {
        if (!take(1))
            return false;
        *out = data_[pos_ - 1];
        return true;
    }

    bool
    u32(uint32_t *out)
    {
        if (!take(4))
            return false;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_ - 4 + i]) << (8 * i);
        *out = v;
        return true;
    }

    bool
    u64(uint64_t *out)
    {
        if (!take(8))
            return false;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_ - 8 + i]) << (8 * i);
        *out = v;
        return true;
    }

    bool
    i64(int64_t *out)
    {
        uint64_t v = 0;
        if (!u64(&v))
            return false;
        *out = static_cast<int64_t>(v);
        return true;
    }

    bool
    i32(int32_t *out)
    {
        uint32_t v = 0;
        if (!u32(&v))
            return false;
        *out = static_cast<int32_t>(v);
        return true;
    }

    bool
    f64(double *out)
    {
        uint64_t bits = 0;
        if (!u64(&bits))
            return false;
        std::memcpy(out, &bits, sizeof *out);
        return true;
    }

    bool
    str(std::string *out)
    {
        uint64_t len = 0;
        if (!u64(&len) || !take(static_cast<size_t>(len)))
            return false;
        out->assign(reinterpret_cast<const char *>(data_ + pos_ - len),
                    static_cast<size_t>(len));
        return true;
    }

  private:
    bool
    take(size_t k)
    {
        if (!ok_ || n_ - pos_ < k) {
            ok_ = false;
            return false;
        }
        pos_ += k;
        return true;
    }

    const uint8_t *data_;
    size_t n_;
    size_t pos_ = 0;
    bool ok_ = true;
};

// --- Field-table codec: each member's C++ type picks its encoding. ---

/** Guard against decoding a hostile length prefix into an allocation:
 *  no real timeline or channel list comes close to this. */
inline constexpr uint64_t kMaxVectorElems = 1u << 28;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

/**
 * Append `v`: bool and sim::OpClass as one byte, int as i32, int64_t
 * as i64, double as its raw bit pattern, string and vector as a u64
 * length then the contents, and a struct as its field table in order.
 */
template <typename T>
void
encodeValue(const T &v, ByteWriter *w)
{
    if constexpr (std::is_same_v<T, bool> ||
                  std::is_same_v<T, sim::OpClass>)
        w->u8(static_cast<uint8_t>(v));
    else if constexpr (std::is_same_v<T, int32_t>)
        w->i32(v);
    else if constexpr (std::is_same_v<T, int64_t>)
        w->i64(v);
    else if constexpr (std::is_same_v<T, double>)
        w->f64(v);
    else if constexpr (std::is_same_v<T, std::string>)
        w->str(v);
    else if constexpr (kIsVector<T>) {
        w->u64(v.size());
        for (const auto &e : v)
            encodeValue(e, w);
    } else {
        static_assert(HasFields<T>, "no encoding for this type");
        forEachField(v, [w](const char *, const auto &m) {
            encodeValue(m, w);
        });
    }
}

/**
 * Read `*v` in encodeValue's layout. False on truncation, a bool byte
 * above 1, an out-of-range OpClass, or a vector longer than
 * kMaxVectorElems; `*v` is then partially written.
 */
template <typename T>
bool
decodeValue(ByteReader *r, T *v)
{
    if constexpr (std::is_same_v<T, bool> ||
                  std::is_same_v<T, sim::OpClass>) {
        constexpr int kMax = std::is_same_v<T, bool>
                                 ? 1
                                 : static_cast<int>(sim::OpClass::Other);
        uint8_t b = 0;
        if (!r->u8(&b) || b > kMax)
            return false;
        *v = static_cast<T>(b);
        return true;
    } else if constexpr (std::is_same_v<T, int32_t>) {
        return r->i32(v);
    } else if constexpr (std::is_same_v<T, int64_t>) {
        return r->i64(v);
    } else if constexpr (std::is_same_v<T, double>) {
        return r->f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return r->str(v);
    } else if constexpr (kIsVector<T>) {
        uint64_t n = 0;
        if (!r->u64(&n) || n > kMaxVectorElems)
            return false;
        v->resize(static_cast<size_t>(n));
        for (auto &e : *v)
            if (!decodeValue(r, &e))
                return false;
        return true;
    } else {
        static_assert(HasFields<T>, "no encoding for this type");
        bool ok = true;
        forEachField(*v, [r, &ok](const char *, auto &m) {
            ok = ok && decodeValue(r, &m);
        });
        return ok;
    }
}

// --- Store payloads. ---

void encodeCompiledKernel(const sched::CompiledKernel &ck,
                          ByteWriter *w);
/** False on truncation, trailing bytes, or any malformed field. */
bool decodeCompiledKernel(const std::vector<uint8_t> &bytes,
                          sched::CompiledKernel *out);

void encodeSimResult(const sim::SimResult &r, ByteWriter *w);
bool decodeSimResult(const std::vector<uint8_t> &bytes,
                     sim::SimResult *out);

} // namespace sps::store

#endif // SPS_STORE_CODEC_H
