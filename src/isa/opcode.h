/**
 * @file
 * The kernel operation set. Kernels (the paper's KernelC programs) are
 * dataflow graphs of these operations, executed in SIMD across C
 * clusters and scheduled as VLIW across the functional units of one
 * cluster.
 *
 * Every static fact of an opcode -- mnemonic, functional-unit class,
 * operand count and Imagine base timing -- is one row of kOpTable.
 * To add an opcode:
 *   1. append it to Opcode (in its unit-class group; the numeric
 *      values of the existing opcodes must not move, kernel
 *      fingerprints hash them);
 *   2. add its row at the same position of kOpTable (the build fails
 *      on a missing or misordered row);
 *   3. give it semantics in the reference interpreter, the scalar
 *      span executor and (if it vectorizes) the SIMD strips, and a
 *      kernel::KernelBuilder method;
 *   4. re-pin OpcodeTableTest's digest.
 */
#ifndef SPS_ISA_OPCODE_H
#define SPS_ISA_OPCODE_H

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string_view>

namespace sps::isa {

/**
 * Operation codes. Grouped by the functional-unit class that executes
 * them (see FuClass / fuClassOf()).
 */
enum class Opcode : uint8_t {
    // Adder-class ALU operations (integer).
    IAdd, ISub, IAnd, IOr, IXor, IShl, IShr, IAbs, IMin, IMax,
    ICmpEq, ICmpLt, ICmpLe, Select,
    // Adder-class ALU operations (floating point / conversion).
    FAdd, FSub, FAbs, FMin, FMax, FNeg, FCmpEq, FCmpLt, FCmpLe,
    FToI, IToF, FFloor,
    // Multiplier-class operations.
    IMul, FMul,
    // Divide/square-root class operations.
    FDiv, FSqrt, FRsqrt,
    // Scratchpad operations (small per-cluster indexed memory).
    SpRead, SpWrite,
    // Intercluster communication: value from another cluster.
    CommPerm,
    // Streambuffer (SRF) accesses, one word each.
    SbRead, SbWrite,
    // Conditional stream accesses (routed through the COMM units).
    SbCondRead, SbCondWrite,
    // Pseudo-operations that consume no functional unit.
    ConstInt, ConstFloat, LoopIndex, ClusterId, NumClusters, Phi,

    NumOpcodes,
};

/** Functional-unit classes present in an arithmetic cluster. */
enum class FuClass : uint8_t {
    Adder,      ///< integer/FP add, logic, compare, select
    Multiplier, ///< integer/FP multiply
    Dsq,        ///< divide / square root
    Scratchpad, ///< SP indexed access
    Comm,       ///< intercluster switch port
    SbPort,     ///< streambuffer (SRF) port
    None,       ///< pseudo-ops: consume no issue slot
};

/** Number of FuClass values; the classes with issue slots are every
 *  one before None. */
inline constexpr size_t kNumFuClasses =
    static_cast<size_t>(FuClass::None) + 1;

/** Latency / occupancy of one operation. */
struct OpTiming
{
    /** Cycles from issue until the result may be consumed. */
    int latency = 1;
    /**
     * Cycles the functional unit is occupied before accepting another
     * operation. 1 for fully-pipelined units; the iterative DSQ unit
     * is not fully pipelined.
     */
    int issueInterval = 1;
};

/** Every static fact of one opcode. */
struct OpInfo
{
    Opcode op;
    std::string_view mnemonic;
    FuClass cls;
    /** Number of value operands the opcode consumes. */
    int arity;
    /** Baseline (Imagine) timing. Machine-size-dependent adjustments
     *  (extra intracluster pipeline stages, intercluster COMM latency)
     *  are applied by sched::MachineModel on top of it. */
    OpTiming timing;
};

/**
 * The ISA table, row i describing opcode i. Timings are Imagine's at
 * the 45 FO4 cycle (Section 5: "Functional unit latencies were taken
 * from latencies in the Imagine stream processor"): the DSQ unit is
 * iterative (an issue slot every 8 cycles), a streambuffer read
 * includes half a cycle of intracluster switch traversal, a write is
 * fire and forget, and the delay model grows COMM's 2 cycles.
 * Conditional streams route data through the intercluster switch, so
 * they occupy COMM issue slots (Kapasi et al.).
 */
inline constexpr OpInfo kOpTable[] = {
    // opcode             mnemonic   class                arity timing
    {Opcode::IAdd,        "iadd",    FuClass::Adder,      2, {2, 1}},
    {Opcode::ISub,        "isub",    FuClass::Adder,      2, {2, 1}},
    {Opcode::IAnd,        "iand",    FuClass::Adder,      2, {2, 1}},
    {Opcode::IOr,         "ior",     FuClass::Adder,      2, {2, 1}},
    {Opcode::IXor,        "ixor",    FuClass::Adder,      2, {2, 1}},
    {Opcode::IShl,        "ishl",    FuClass::Adder,      2, {2, 1}},
    {Opcode::IShr,        "ishr",    FuClass::Adder,      2, {2, 1}},
    {Opcode::IAbs,        "iabs",    FuClass::Adder,      1, {2, 1}},
    {Opcode::IMin,        "imin",    FuClass::Adder,      2, {2, 1}},
    {Opcode::IMax,        "imax",    FuClass::Adder,      2, {2, 1}},
    {Opcode::ICmpEq,      "icmpeq",  FuClass::Adder,      2, {2, 1}},
    {Opcode::ICmpLt,      "icmplt",  FuClass::Adder,      2, {2, 1}},
    {Opcode::ICmpLe,      "icmple",  FuClass::Adder,      2, {2, 1}},
    {Opcode::Select,      "select",  FuClass::Adder,      3, {2, 1}},
    {Opcode::FAdd,        "fadd",    FuClass::Adder,      2, {4, 1}},
    {Opcode::FSub,        "fsub",    FuClass::Adder,      2, {4, 1}},
    {Opcode::FAbs,        "fabs",    FuClass::Adder,      1, {2, 1}},
    {Opcode::FMin,        "fmin",    FuClass::Adder,      2, {4, 1}},
    {Opcode::FMax,        "fmax",    FuClass::Adder,      2, {4, 1}},
    {Opcode::FNeg,        "fneg",    FuClass::Adder,      1, {2, 1}},
    {Opcode::FCmpEq,      "fcmpeq",  FuClass::Adder,      2, {4, 1}},
    {Opcode::FCmpLt,      "fcmplt",  FuClass::Adder,      2, {4, 1}},
    {Opcode::FCmpLe,      "fcmple",  FuClass::Adder,      2, {4, 1}},
    {Opcode::FToI,        "ftoi",    FuClass::Adder,      1, {4, 1}},
    {Opcode::IToF,        "itof",    FuClass::Adder,      1, {4, 1}},
    {Opcode::FFloor,      "ffloor",  FuClass::Adder,      1, {4, 1}},
    {Opcode::IMul,        "imul",    FuClass::Multiplier, 2, {4, 1}},
    {Opcode::FMul,        "fmul",    FuClass::Multiplier, 2, {4, 1}},
    {Opcode::FDiv,        "fdiv",    FuClass::Dsq,        2, {16, 8}},
    {Opcode::FSqrt,       "fsqrt",   FuClass::Dsq,        1, {16, 8}},
    {Opcode::FRsqrt,      "frsqrt",  FuClass::Dsq,        1, {16, 8}},
    {Opcode::SpRead,      "sprd",    FuClass::Scratchpad, 1, {2, 1}},
    {Opcode::SpWrite,     "spwr",    FuClass::Scratchpad, 2, {2, 1}},
    {Opcode::CommPerm,    "comm",    FuClass::Comm,       2, {2, 1}},
    {Opcode::SbRead,      "sbrd",    FuClass::SbPort,     0, {3, 1}},
    {Opcode::SbWrite,     "sbwr",    FuClass::SbPort,     1, {1, 1}},
    {Opcode::SbCondRead,  "condrd",  FuClass::Comm,       1, {2, 1}},
    {Opcode::SbCondWrite, "condwr",  FuClass::Comm,       2, {2, 1}},
    {Opcode::ConstInt,    "consti",  FuClass::None,       0, {0, 0}},
    {Opcode::ConstFloat,  "constf",  FuClass::None,       0, {0, 0}},
    {Opcode::LoopIndex,   "loopidx", FuClass::None,       0, {0, 0}},
    {Opcode::ClusterId,   "cid",     FuClass::None,       0, {0, 0}},
    {Opcode::NumClusters, "nclust",  FuClass::None,       0, {0, 0}},
    {Opcode::Phi,         "phi",     FuClass::None,       1, {0, 0}},
};

static_assert(
    [] {
        for (size_t i = 0; i < std::size(kOpTable); ++i)
            if (static_cast<size_t>(kOpTable[i].op) != i)
                return false;
        return std::size(kOpTable) ==
               static_cast<size_t>(Opcode::NumOpcodes);
    }(),
    "kOpTable needs one row per opcode, row i describing opcode i");

/** The table row of an opcode; panics on an out-of-range opcode. */
const OpInfo &opInfo(Opcode op);

/** The functional-unit class that executes an opcode. */
inline FuClass fuClassOf(Opcode op) { return opInfo(op).cls; }

/** Number of value operands the opcode consumes. */
inline int arity(Opcode op) { return opInfo(op).arity; }

/** Baseline (Imagine) timing of an opcode. */
inline OpTiming baseTiming(Opcode op) { return opInfo(op).timing; }

/** Mnemonic for debug printing ("<bad>" for an out-of-range opcode,
 *  so a panic message may name any code). */
std::string_view mnemonic(Opcode op);

/** True for operations counted as "ALU operations" in the paper: the
 *  adder, multiplier and DSQ classes. */
bool isAluOp(Opcode op);

/** True for SRF (streambuffer) accesses: the SbPort class plus the
 *  two conditional streams. */
bool isSrfAccess(Opcode op);

/** True for scratchpad accesses. */
bool isSpAccess(Opcode op);

/** True for intercluster communications (COMM or conditional stream). */
bool isCommOp(Opcode op);

} // namespace sps::isa

#endif // SPS_ISA_OPCODE_H
