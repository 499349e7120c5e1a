/**
 * @file
 * StreamC-level program representation: an application is a sequence
 * of stream loads, stores, and kernel calls over declared streams.
 * Programs are authored (by the workload builders) already
 * strip-mined for a concrete machine; the simulator derives
 * dependences from stream usage and executes with a scoreboard, so
 * independent loads overlap kernel execution exactly as on Imagine.
 */
#ifndef SPS_STREAM_PROGRAM_H
#define SPS_STREAM_PROGRAM_H

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "kernel/ir.h"

namespace sps::stream {

/** A declared stream. */
struct StreamInfo
{
    std::string name;
    int recordWords = 1;
    int64_t records = 0;
    /** True if the stream's home is external memory. */
    bool memoryBacked = false;
    /**
     * True for 16-bit data: two subwords pack into each memory word,
     * halving external transfer size (SRF occupancy is unchanged --
     * clusters operate on unpacked words).
     */
    bool packed16 = false;
    /**
     * External-memory layout: word address of the first record
     * (assigned from the program's layout cursor on declaration for
     * memory-backed streams, on first store otherwise; overridable
     * via setMemLayout) and the start-to-start distance between
     * consecutive records in memory words (0 = dense).
     */
    int64_t memBaseWord = -1;
    int64_t memStrideWords = 0;

    int64_t words() const { return records * recordWords; }
    /** Words moved over the external memory interface. */
    int64_t memWords() const { return packed16 ? words() / 2 : words(); }
    /** Contiguous memory words per record (packed16 halves them). */
    int64_t memRecordWords() const
    {
        return packed16 ? std::max(1, recordWords / 2) : recordWords;
    }
    /** Memory words spanned from the first to past the last record. */
    int64_t memFootprintWords() const;
};

/** Kind of one stream-level operation. */
enum class OpKind { Load, Store, Kernel };

/**
 * One stream-level operation. Its kernel arguments live in the
 * program's one argument array (StreamProgram::args) and its label is
 * derived from its kind and names (StreamProgram::label), so building
 * an op allocates nothing of its own.
 */
struct StreamOp
{
    OpKind kind = OpKind::Kernel;
    /** Load/Store: the stream moved. */
    int stream = -1;
    /** Kernel: the kernel called. */
    const kernel::Kernel *k = nullptr;
    /** Kernel: where its stream arguments start in the program's
     *  argument array, and how many there are (0 for a load or store). */
    int argBegin = 0;
    int argCount = 0;
    /** Kernel: index of `k` in StreamProgram::kernels(). */
    int kernelSlot = -1;
    /** Records processed (driver-stream records for kernel calls). */
    int64_t records = 0;
    /**
     * Load/Store: resolved memory addressing, carried on the op so
     * the memory system can generate real word addresses -- base word
     * address, start-to-start record stride, and contiguous words per
     * record (all in memory words, i.e. after 16-bit packing).
     */
    int64_t memBase = 0;
    int64_t memStride = 0;
    int64_t memRecordWords = 1;
};

/**
 * A stream program. Built by application code, executed by sim::.
 */
class StreamProgram
{
  public:
    explicit StreamProgram(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }
    const std::vector<StreamInfo> &streams() const { return streams_; }
    const std::vector<StreamOp> &ops() const { return ops_; }
    /**
     * A kernel call's stream arguments in port order; empty for a load
     * or store. The view is into an array that every callKernel may
     * grow, so it is valid until the next callKernel.
     */
    std::span<const int> args(const StreamOp &op) const
    {
        return {args_.data() + op.argBegin,
                static_cast<size_t>(op.argCount)};
    }
    /** The op's label: "load " or "store " followed by the stream's
     *  name, or the kernel's name for a kernel call. */
    std::string label(const StreamOp &op) const;
    /**
     * The distinct kernels the program calls, in first-call order. A
     * program calls few kernels many times (QRD: 2 kernels, 2,240
     * calls), so per-kernel work is done once per entry.
     */
    const std::vector<const kernel::Kernel *> &kernels() const
    {
        return kernels_;
    }

    /** Declare a stream; returns its id. */
    int declareStream(const std::string &name, int record_words,
                      int64_t records, bool memory_backed = false,
                      bool packed16 = false);

    /**
     * Override a stream's external-memory layout before its first
     * load/store: record stride in memory words (0 = dense), and
     * optionally an explicit base word address (-1 keeps the
     * program-assigned base). A stride smaller than the record length
     * reads overlapping windows; a stride of `channels` words aliases
     * every record start onto one memory channel.
     */
    void setMemLayout(int stream, int64_t stride_words,
                      int64_t base_word = -1);

    /** Load a memory-backed stream into the SRF. */
    void load(int stream);

    /** Store an SRF stream back to memory. */
    void store(int stream);

    /**
     * Call a kernel. `args` bind program streams to the kernel's
     * stream ports in declaration order. `driver_records` overrides
     * the iteration count (default: the bound length-driver stream's
     * record count).
     */
    void callKernel(const kernel::Kernel *k, std::span<const int> args,
                    int64_t driver_records = -1);
    /** The builders' braced form: callKernel(&k, {in, out}). */
    void callKernel(const kernel::Kernel *k,
                    std::initializer_list<int> args,
                    int64_t driver_records = -1)
    {
        callKernel(k, std::span<const int>(args.begin(), args.size()),
                   driver_records);
    }

    /** Total records each stream op processes (for stats/tests). */
    int64_t totalKernelRecords() const;

  private:
    /** Assign a base address from the layout cursor if unassigned. */
    void ensureMemLayout(int stream);

    std::string name_;
    std::vector<StreamInfo> streams_;
    std::vector<StreamOp> ops_;
    /** Every kernel call's stream arguments, back to back in op
     *  order (StreamOp::argBegin/argCount). */
    std::vector<int> args_;
    std::vector<const kernel::Kernel *> kernels_;
    /** Next free external-memory word (bump allocator). */
    int64_t memCursor_ = 0;
};

/**
 * Structural fingerprint of a whole stream program: name, every
 * declared stream (lengths, packing, memory layout), and every op
 * (kind, bound streams, called-kernel fingerprints, record counts,
 * resolved addressing). Two programs with equal fingerprints simulate
 * identically on a given machine, so the fingerprint keys persisted
 * simulation results in the content-addressed result store.
 */
uint64_t programFingerprint(const StreamProgram &p);

} // namespace sps::stream

#endif // SPS_STREAM_PROGRAM_H
