/**
 * @file
 * Kernel intermediate representation: the dataflow graph of one kernel
 * inner loop. A kernel reads records from input streams, performs the
 * same computation for every record (SIMD across clusters), and appends
 * records to output streams. Loop-carried values (accumulators and
 * other recurrences) are expressed with Phi operations.
 *
 * The IR is SSA: each operation defines exactly one value, identified
 * by its index in Kernel::ops. Program-order side effects (scratchpad,
 * conditional streams, same-stream accesses) are serialized with
 * explicit token edges recorded in Op::orderAfter.
 *
 * A kernel carries the memo of its structural fingerprint
 * (kernel/fingerprint.h): the first kernel::fingerprint call walks the
 * graph and later calls return the memo. So a kernel is not edited
 * once it has been fingerprinted; a copy (or a moved-to kernel) starts
 * with an empty memo and may be edited before its first fingerprint.
 */
#ifndef SPS_KERNEL_IR_H
#define SPS_KERNEL_IR_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/opcode.h"
#include "isa/value.h"

namespace sps::kernel {

/** Index of an operation (and of the value it defines). */
using ValueId = int32_t;

/** Marker for "no value". */
constexpr ValueId kNoValue = -1;

/** Data type tag, used for GOPS accounting (16-bit kernels execute two
 *  subword operations per ALU instruction, as on Imagine). */
enum class DataClass { Word32, Half16 };

/** One operation in the kernel dataflow graph. */
struct Op
{
    isa::Opcode code = isa::Opcode::ConstInt;
    /** Value operands (indices of defining ops). */
    std::vector<ValueId> args;
    /** Immediate payload for constants. */
    isa::Word imm;
    /** Stream index for Sb* operations; scratchpad ops ignore it. */
    int stream = -1;
    /** Record field (word offset within the record) for SbRead/SbWrite. */
    int field = 0;
    /**
     * For Phi: dependence distance in iterations (>= 1) of args[0];
     * the value produced at iteration i is args[0]'s value from
     * iteration i - distance, or `init` for the first `distance`
     * iterations.
     */
    int distance = 0;
    isa::Word init;
    /** Token predecessors: ops that must execute before this one. */
    std::vector<ValueId> orderAfter;
};

/** Direction of a kernel stream port. */
enum class PortDir { In, Out };

/** One stream port of a kernel. */
struct StreamPort
{
    std::string name;
    PortDir dir = PortDir::In;
    /** Words per record. */
    int recordWords = 1;
    /** True for conditional (data-dependent rate) streams. */
    bool conditional = false;
};

/**
 * A complete kernel: its stream signature and inner-loop body. Not
 * edited after its first kernel::fingerprint (see the file comment).
 */
struct Kernel
{
    std::string name;
    DataClass dataClass = DataClass::Word32;
    std::vector<StreamPort> streams;
    std::vector<Op> ops;
    /**
     * Index of the input stream whose length determines the iteration
     * count (the kernel's primary input).
     */
    int lengthDriver = 0;
    /** Scratchpad words needed per cluster. */
    int scratchpadWords = 0;

    /** Number of input / output ports. */
    int inputCount() const;
    int outputCount() const;

    /** The op that defines value `id`. */
    const Op &op(ValueId id) const { return ops[static_cast<size_t>(id)]; }

  private:
    friend uint64_t fingerprint(const Kernel &k);

    /** kernel::fingerprint's memo: 0 until the first call stores the
     *  fingerprint. Copying or moving leaves the target's memo empty,
     *  since the target may then be edited. */
    struct FingerprintMemo
    {
        mutable std::atomic<uint64_t> value{0};

        FingerprintMemo() = default;
        FingerprintMemo(const FingerprintMemo &) noexcept {}
        FingerprintMemo &operator=(const FingerprintMemo &) noexcept
        {
            value.store(0, std::memory_order_relaxed);
            return *this;
        }
    };
    FingerprintMemo fingerprint_;
};

} // namespace sps::kernel

#endif // SPS_KERNEL_IR_H
