#include "store/result_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#ifdef _WIN32
#include <process.h>
#define SPS_GETPID _getpid
#else
#include <unistd.h>
#define SPS_GETPID getpid
#endif

namespace sps::store {

namespace {

constexpr uint32_t kMagic = 0x52535053; // "SPSR" little-endian

// Entry header: magic, schema version, kind, pad, payload length,
// headerChecksum -- 32 bytes, followed by the payload.
constexpr size_t kHeaderBytes = 32;

const char *
kindDir(Kind kind)
{
    switch (kind) {
    case Kind::Schedule:
        return "sched";
    case Kind::SimResult:
        return "sim";
    }
    return "other";
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
putHeader(const Key &key, const std::vector<uint8_t> &payload,
          ByteWriter *w)
{
    w->u32(kMagic);
    w->u32(kStoreSchemaVersion);
    w->u32(static_cast<uint32_t>(key.kind));
    w->u32(0); // reserved
    w->u64(payload.size());
    w->u64(headerChecksum(w->bytes().data(), payload));
}

} // namespace

ResultStore::ResultStore(std::string root, uint64_t maxCacheBytes)
    : root_(std::move(root)), maxCacheBytes_(maxCacheBytes)
{
    std::error_code ec;
    for (Kind k : {Kind::Schedule, Kind::SimResult})
        std::filesystem::create_directories(
            std::filesystem::path(root_) / kindDir(k), ec);
    // A failed create is deliberately not fatal: get() will miss and
    // put() will count write errors.
}

std::string
ResultStore::entryPath(const Key &key) const
{
    return (std::filesystem::path(root_) / kindDir(key.kind) /
            (hex16(key.content) + "-" + hex16(key.machine) + "-" +
             hex16(key.options) + ".bin"))
        .string();
}

bool
ResultStore::get(const Key &key, std::vector<uint8_t> *payload)
{
    // No payload to parse: a verified entry is a hit.
    return fetch(key, payload) && countDecode(true);
}

bool
ResultStore::countDecode(bool decoded)
{
    (decoded ? hits_ : corrupt_).inc();
    return decoded;
}

bool
ResultStore::fetch(const Key &key, std::vector<uint8_t> *payload)
{
    if (!getHitUs_.load(std::memory_order_relaxed))
        return get_(key, payload);
    uint64_t t0 = obs::monotonicMicros();
    bool ok = get_(key, payload);
    obs::Histogram *h =
        (ok ? getHitUs_ : getMissUs_).load(std::memory_order_relaxed);
    if (h)
        h->observe(obs::monotonicMicros() - t0);
    return ok;
}

bool
ResultStore::put(const Key &key, const std::vector<uint8_t> &payload)
{
    obs::Histogram *h = putUs_.load(std::memory_order_relaxed);
    if (!h)
        return put_(key, payload);
    uint64_t t0 = obs::monotonicMicros();
    bool ok = put_(key, payload);
    h->observe(obs::monotonicMicros() - t0);
    return ok;
}

void
ResultStore::attachMetrics(obs::MetricsRegistry *registry)
{
    if (!registry) {
        getHitUs_.store(nullptr, std::memory_order_relaxed);
        getMissUs_.store(nullptr, std::memory_order_relaxed);
        putUs_.store(nullptr, std::memory_order_relaxed);
        return;
    }
    getHitUs_.store(
        registry->histogram("sps_store_get_duration_us",
                            "result=\"hit\"",
                            "Result store get() latency (us)"),
        std::memory_order_relaxed);
    getMissUs_.store(registry->histogram("sps_store_get_duration_us",
                                         "result=\"miss\""),
                     std::memory_order_relaxed);
    putUs_.store(
        registry->histogram("sps_store_put_duration_us", "",
                            "Result store put() latency (us)"),
        std::memory_order_relaxed);
    registry->expose("sps_store_hits", "",
                     "Verified result-store entries served", &hits_);
    registry->expose("sps_store_misses", "", "Absent entries",
                     &misses_);
    registry->expose("sps_store_corrupt", "",
                     "Damaged or undecodable entries", &corrupt_);
    registry->expose("sps_store_writes", "", "Entries written",
                     &writes_);
    registry->expose("sps_store_write_errors", "", "Failed writes",
                     &writeErrors_);
    registry->expose("sps_store_evicted", "",
                     "Entries evicted by the LRU sweep", &evicted_);
    registry->expose("sps_store_reclaimed_bytes", "",
                     "Bytes freed by sweeps and temp reaps",
                     &reclaimedBytes_);
}

bool
ResultStore::get_(const Key &key, std::vector<uint8_t> *payload)
{
    const std::string path = entryPath(key);
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        misses_.inc();
        return false;
    }
    // One size query, then one read of the payload into the caller's
    // buffer. The buffer is sized from the file, never from the
    // header's length field, which is checked against it instead.
    const std::streamoff size = in.tellg();
    uint8_t header[kHeaderBytes] = {};
    bool read_ok = size >= static_cast<std::streamoff>(kHeaderBytes) &&
                   in.seekg(0) &&
                   in.read(reinterpret_cast<char *>(header), kHeaderBytes);
    if (read_ok) {
        payload->resize(static_cast<size_t>(size) - kHeaderBytes);
        read_ok = static_cast<bool>(
            in.read(reinterpret_cast<char *>(payload->data()),
                    static_cast<std::streamsize>(payload->size())));
    }

    ByteReader r(header, kHeaderBytes);
    uint32_t magic = 0, version = 0, kind = 0, reserved = 0;
    uint64_t length = 0, checksum = 0;
    bool header_ok = read_ok && r.u32(&magic) && r.u32(&version) &&
                     r.u32(&kind) && r.u32(&reserved) &&
                     r.u64(&length) && r.u64(&checksum);
    if (!header_ok || magic != kMagic ||
        version != kStoreSchemaVersion ||
        kind != static_cast<uint32_t>(key.kind) ||
        length != payload->size() ||
        checksum != headerChecksum(header, *payload)) {
        corrupt_.inc();
        payload->clear();
        return false;
    }
    // Refresh the entry's file time so the LRU sweep orders entries
    // by *access* recency. Best effort: an entry evicted between the
    // read and the touch was still served correctly.
    std::error_code ec;
    std::filesystem::last_write_time(
        path, std::filesystem::file_time_type::clock::now(), ec);
    return true;
}

bool
ResultStore::put_(const Key &key, const std::vector<uint8_t> &payload)
{
    ByteWriter w;
    putHeader(key, payload, &w);

    std::string final_path = entryPath(key);
    // Process-unique temp name in the same directory so the final
    // rename is atomic (same filesystem) and concurrent writer
    // processes never collide on the temp file.
    std::string temp_path =
        final_path + ".tmp." + std::to_string(SPS_GETPID()) + "." +
        std::to_string(tempSeq_.fetch_add(1, std::memory_order_relaxed));
    bool wrote;
    {
        std::ofstream out(temp_path, std::ios::binary);
        wrote =
            out &&
            out.write(reinterpret_cast<const char *>(w.bytes().data()),
                      static_cast<std::streamsize>(w.bytes().size())) &&
            out.write(reinterpret_cast<const char *>(payload.data()),
                      static_cast<std::streamsize>(payload.size()));
    }
    std::error_code ec;
    if (!wrote) {
        // A partial write (e.g. disk full) leaves a temp file behind;
        // remove it so failed puts never accumulate `.tmp.*` residue.
        // When the open itself failed the remove is a no-op.
        writeErrors_.inc();
        std::filesystem::remove(temp_path, ec);
        return false;
    }
    std::filesystem::rename(temp_path, final_path, ec);
    if (ec) {
        writeErrors_.inc();
        std::filesystem::remove(temp_path, ec);
        return false;
    }
    writes_.inc();
    if (maxCacheBytes_ != 0)
        sweepToBudget();
    return true;
}

bool
ResultStore::loadSchedule(const Key &key, sched::CompiledKernel *out)
{
    // A payload that verifies but does not parse is a schema drift
    // that forgot the version bump: corrupt, never a wrong hit.
    std::vector<uint8_t> payload;
    return fetch(key, &payload) &&
           countDecode(decodeCompiledKernel(payload, out));
}

bool
ResultStore::storeSchedule(const Key &key,
                           const sched::CompiledKernel &ck)
{
    ByteWriter w;
    encodeCompiledKernel(ck, &w);
    return put(key, w.bytes());
}

bool
ResultStore::loadSimResult(const Key &key, sim::SimResult *out)
{
    std::vector<uint8_t> payload;
    return fetch(key, &payload) &&
           countDecode(decodeSimResult(payload, out));
}

bool
ResultStore::storeSimResult(const Key &key, const sim::SimResult &res)
{
    ByteWriter w;
    encodeSimResult(res, &w);
    return put(key, w.bytes());
}

namespace {

struct EntryFile
{
    std::filesystem::path path;
    uint64_t bytes = 0;
    std::filesystem::file_time_type mtime;
};

bool
isTempFile(const std::filesystem::path &p)
{
    return p.filename().string().find(".tmp.") != std::string::npos;
}

/** Completed entry files (or, with wantTemps, temp files) under the
 *  per-kind directories of `root`. Unreadable files are skipped. */
std::vector<EntryFile>
listFiles(const std::string &root, bool wantTemps)
{
    std::vector<EntryFile> out;
    for (Kind k : {Kind::Schedule, Kind::SimResult}) {
        std::error_code ec;
        std::filesystem::directory_iterator it(
            std::filesystem::path(root) / kindDir(k), ec);
        if (ec)
            continue;
        for (const auto &e : it) {
            std::error_code fec;
            if (!e.is_regular_file(fec) || fec)
                continue;
            if (isTempFile(e.path()) != wantTemps)
                continue;
            EntryFile f;
            f.path = e.path();
            f.bytes = e.file_size(fec);
            if (fec)
                continue;
            f.mtime = e.last_write_time(fec);
            if (fec)
                continue;
            out.push_back(std::move(f));
        }
    }
    return out;
}

} // namespace

uint64_t
ResultStore::totalEntryBytes() const
{
    uint64_t total = 0;
    for (const auto &f : listFiles(root_, /*wantTemps=*/false))
        total += f.bytes;
    return total;
}

uint64_t
ResultStore::sweepToBudget()
{
    if (maxCacheBytes_ == 0)
        return 0;
    std::lock_guard<std::mutex> lock(sweepMu_);
    std::vector<EntryFile> files =
        listFiles(root_, /*wantTemps=*/false);
    uint64_t total = 0;
    for (const auto &f : files)
        total += f.bytes;
    if (total <= maxCacheBytes_)
        return 0;
    // Least recently used first; get() refreshes mtime on every hit.
    std::sort(files.begin(), files.end(),
              [](const EntryFile &a, const EntryFile &b) {
                  return a.mtime < b.mtime;
              });
    uint64_t reclaimed = 0;
    for (const auto &f : files) {
        if (total <= maxCacheBytes_)
            break;
        std::error_code ec;
        if (!std::filesystem::remove(f.path, ec) || ec)
            continue; // already evicted by someone else
        total -= f.bytes;
        reclaimed += f.bytes;
        evicted_.inc();
        reclaimedBytes_.inc(f.bytes);
    }
    return reclaimed;
}

uint64_t
ResultStore::reapOrphanTemps(uint64_t minAgeSeconds)
{
    std::lock_guard<std::mutex> lock(sweepMu_);
    auto now = std::filesystem::file_time_type::clock::now();
    uint64_t reaped = 0;
    for (const auto &f : listFiles(root_, /*wantTemps=*/true)) {
        auto age = std::chrono::duration_cast<std::chrono::seconds>(
            now - f.mtime);
        if (age.count() < static_cast<int64_t>(minAgeSeconds))
            continue; // young enough to still have a live writer
        std::error_code ec;
        if (!std::filesystem::remove(f.path, ec) || ec)
            continue;
        ++reaped;
        reclaimedBytes_.inc(f.bytes);
    }
    return reaped;
}

StoreCounters
ResultStore::counters() const
{
    return StoreCounters{hits_.value(),        misses_.value(),
                         corrupt_.value(),     writes_.value(),
                         writeErrors_.value(), evicted_.value(),
                         reclaimedBytes_.value()};
}

} // namespace sps::store
