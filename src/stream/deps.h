/**
 * @file
 * Dependence analysis over a stream program: RAW / WAR / WAW edges
 * derived from each operation's stream reads and writes, plus
 * last-use information for SRF deallocation.
 */
#ifndef SPS_STREAM_DEPS_H
#define SPS_STREAM_DEPS_H

#include <cstddef>
#include <span>
#include <vector>

#include "stream/program.h"

namespace sps::stream {

/**
 * One list of ints per op, stored flat: list i is
 * items[offsets[i], offsets[i + 1]), so a program's lists cost two
 * allocations, not one per op.
 */
struct OpLists
{
    /** One more entry than there are lists; starts at {0}. */
    std::vector<int> offsets{0};
    std::vector<int> items;

    size_t size() const { return offsets.size() - 1; }

    std::span<const int> operator[](size_t i) const
    {
        return std::span<const int>(items).subspan(
            static_cast<size_t>(offsets[i]),
            static_cast<size_t>(offsets[i + 1] - offsets[i]));
    }

    /** End the list being built: the items appended since the last
     *  close() become the next list. */
    void close() { offsets.push_back(static_cast<int>(items.size())); }
};

/** Per-op dependence and liveness facts. */
struct ProgramDeps
{
    /** For each op, indices of ops it must wait for, ascending. */
    OpLists deps;
    /** For each op, streams whose last use this op is, ascending. */
    OpLists lastUseOf;
    /** Streams each op reads / writes (kernel inputs / outputs), in
     *  port order. */
    OpLists reads;
    OpLists writes;
};

/** Analyze the program. */
ProgramDeps analyzeDeps(const StreamProgram &prog);

} // namespace sps::stream

#endif // SPS_STREAM_DEPS_H
