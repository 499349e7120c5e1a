#include "stream/program.h"

#include <algorithm>
#include <functional>
#include <string_view>

#include "common/fnv.h"
#include "common/log.h"
#include "kernel/fingerprint.h"

namespace sps::stream {

namespace {

/** What StreamProgram::label puts before the name: "load ", "store ",
 *  or nothing for a kernel call. */
std::string_view
labelPrefix(OpKind kind)
{
    switch (kind) {
      case OpKind::Load: return "load ";
      case OpKind::Store: return "store ";
      case OpKind::Kernel: break;
    }
    return {};
}

/** The name StreamProgram::label ends with: the stream's or the
 *  kernel's. */
const std::string &
labelName(const StreamProgram &p, const StreamOp &op)
{
    return op.kind == OpKind::Kernel
               ? op.k->name
               : p.streams()[static_cast<size_t>(op.stream)].name;
}

} // namespace

int64_t
StreamInfo::memFootprintWords() const
{
    if (records <= 0)
        return 0;
    int64_t stride =
        memStrideWords > 0 ? memStrideWords : memRecordWords();
    return (records - 1) * stride + memRecordWords();
}

int
StreamProgram::declareStream(const std::string &name, int record_words,
                             int64_t records, bool memory_backed,
                             bool packed16)
{
    SPS_ASSERT(record_words >= 1 && records >= 0,
               "bad stream declaration %s", name.c_str());
    streams_.push_back(StreamInfo{name, record_words, records,
                                  memory_backed, packed16});
    int id = static_cast<int>(streams_.size()) - 1;
    // Memory-backed streams get their home address up front; streams
    // first materialized in the SRF get one on first store.
    if (memory_backed)
        ensureMemLayout(id);
    return id;
}

void
StreamProgram::setMemLayout(int stream, int64_t stride_words,
                            int64_t base_word)
{
    SPS_ASSERT(stream >= 0 &&
                   stream < static_cast<int>(streams_.size()),
               "bad stream id %d", stream);
    SPS_ASSERT(stride_words >= 0, "bad stride %lld",
               static_cast<long long>(stride_words));
    StreamInfo &info = streams_[static_cast<size_t>(stream)];
    info.memStrideWords = stride_words;
    if (base_word >= 0) {
        info.memBaseWord = base_word;
    } else if (info.memBaseWord >= 0) {
        // Re-assign from the cursor so the strided footprint does not
        // collide with later streams.
        info.memBaseWord = -1;
        ensureMemLayout(stream);
    }
}

void
StreamProgram::ensureMemLayout(int stream)
{
    StreamInfo &info = streams_[static_cast<size_t>(stream)];
    if (info.memBaseWord >= 0)
        return;
    info.memBaseWord = memCursor_;
    memCursor_ += info.memFootprintWords();
}

void
StreamProgram::load(int stream)
{
    SPS_ASSERT(stream >= 0 &&
                   stream < static_cast<int>(streams_.size()),
               "bad stream id %d", stream);
    SPS_ASSERT(streams_[stream].memoryBacked,
               "load of non-memory stream %s",
               streams_[stream].name.c_str());
    ensureMemLayout(stream);
    const StreamInfo &info = streams_[static_cast<size_t>(stream)];
    StreamOp op;
    op.kind = OpKind::Load;
    op.stream = stream;
    op.records = info.records;
    op.memBase = info.memBaseWord;
    op.memStride = info.memStrideWords;
    op.memRecordWords = info.memRecordWords();
    ops_.push_back(op);
}

void
StreamProgram::store(int stream)
{
    SPS_ASSERT(stream >= 0 &&
                   stream < static_cast<int>(streams_.size()),
               "bad stream id %d", stream);
    ensureMemLayout(stream);
    const StreamInfo &info = streams_[static_cast<size_t>(stream)];
    StreamOp op;
    op.kind = OpKind::Store;
    op.stream = stream;
    op.records = info.records;
    op.memBase = info.memBaseWord;
    op.memStride = info.memStrideWords;
    op.memRecordWords = info.memRecordWords();
    ops_.push_back(op);
}

void
StreamProgram::callKernel(const kernel::Kernel *k, std::span<const int> args,
                          int64_t driver_records)
{
    SPS_ASSERT(k != nullptr, "null kernel");
    SPS_ASSERT(args.size() == k->streams.size(),
               "kernel %s takes %zu streams, got %zu", k->name.c_str(),
               k->streams.size(), args.size());
    for (size_t i = 0; i < args.size(); ++i) {
        int s = args[i];
        SPS_ASSERT(s >= 0 && s < static_cast<int>(streams_.size()),
                   "kernel %s arg %zu: bad stream id %d",
                   k->name.c_str(), i, s);
        SPS_ASSERT(streams_[s].recordWords == k->streams[i].recordWords,
                   "kernel %s arg %zu (%s): record width %d != %d",
                   k->name.c_str(), i, streams_[s].name.c_str(),
                   streams_[s].recordWords, k->streams[i].recordWords);
    }
    StreamOp op;
    op.kind = OpKind::Kernel;
    op.k = k;
    auto slot = std::find(kernels_.begin(), kernels_.end(), k);
    op.kernelSlot = static_cast<int>(slot - kernels_.begin());
    if (slot == kernels_.end())
        kernels_.push_back(k);
    op.records = driver_records >= 0
                     ? driver_records
                     : streams_[args[k->lengthDriver]].records;
    op.argBegin = static_cast<int>(args_.size());
    op.argCount = static_cast<int>(args.size());
    // `args` may be an earlier call's args(op), a view into args_ that
    // growing args_ moves; such arguments are copied by index.
    const int *own = args_.data();
    if (std::less_equal<const int *>{}(own, args.data()) &&
        std::less<const int *>{}(args.data(), own + args_.size())) {
        const auto from = static_cast<size_t>(args.data() - own);
        for (size_t i = 0; i < args.size(); ++i)
            args_.push_back(args_[from + i]);
    } else {
        args_.insert(args_.end(), args.begin(), args.end());
    }
    ops_.push_back(op);
}

std::string
StreamProgram::label(const StreamOp &op) const
{
    const std::string_view prefix = labelPrefix(op.kind);
    const std::string &name = labelName(*this, op);
    std::string s;
    s.reserve(prefix.size() + name.size());
    s.append(prefix).append(name);
    return s;
}

int64_t
StreamProgram::totalKernelRecords() const
{
    int64_t total = 0;
    for (const StreamOp &op : ops_)
        if (op.kind == OpKind::Kernel)
            total += op.records;
    return total;
}

uint64_t
programFingerprint(const StreamProgram &p)
{
    std::vector<uint64_t> kernel_fps;
    kernel_fps.reserve(p.kernels().size());
    for (const kernel::Kernel *k : p.kernels())
        kernel_fps.push_back(kernel::fingerprint(*k));
    Fnv f;
    f.mix(p.name());
    f.mix(static_cast<uint64_t>(p.streams().size()));
    for (const StreamInfo &s : p.streams()) {
        f.mix(s.name);
        f.mix(static_cast<uint64_t>(s.recordWords));
        f.mix(static_cast<uint64_t>(s.records));
        f.mix(static_cast<uint64_t>(s.memoryBacked ? 1 : 0));
        f.mix(static_cast<uint64_t>(s.packed16 ? 1 : 0));
        f.mix(static_cast<uint64_t>(s.memBaseWord));
        f.mix(static_cast<uint64_t>(s.memStrideWords));
    }
    f.mix(static_cast<uint64_t>(p.ops().size()));
    for (const StreamOp &op : p.ops()) {
        f.mix(static_cast<uint64_t>(op.kind));
        f.mix(static_cast<uint64_t>(op.stream));
        f.mix(op.k ? kernel_fps[static_cast<size_t>(op.kernelSlot)]
                   : 0);
        f.mix(static_cast<uint64_t>(op.argCount));
        for (int a : p.args(op))
            f.mix(static_cast<uint64_t>(a));
        f.mix(static_cast<uint64_t>(op.records));
        // label(op), mixed as Fnv::mix(std::string) mixes it, without
        // building the string.
        const std::string_view prefix = labelPrefix(op.kind);
        const std::string &name = labelName(p, op);
        f.mix(static_cast<uint64_t>(prefix.size() + name.size()));
        f.mixBytes(prefix);
        f.mixBytes(name);
        f.mix(static_cast<uint64_t>(op.memBase));
        f.mix(static_cast<uint64_t>(op.memStride));
        f.mix(static_cast<uint64_t>(op.memRecordWords));
    }
    return f.h;
}

} // namespace sps::stream
