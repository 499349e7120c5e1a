/**
 * @file
 * Dependence analysis over a stream program: RAW / WAR / WAW edges
 * derived from each operation's stream reads and writes, plus
 * last-use information for SRF deallocation.
 */
#ifndef SPS_STREAM_DEPS_H
#define SPS_STREAM_DEPS_H

#include "common/flat_lists.h"
#include "stream/program.h"

namespace sps::stream {

/** Per-op dependence and liveness facts. */
struct ProgramDeps
{
    /** For each op, indices of ops it must wait for, ascending. */
    FlatLists deps;
    /** For each op, streams whose last use this op is, ascending. */
    FlatLists lastUseOf;
    /** Streams each op reads / writes (kernel inputs / outputs), in
     *  port order. */
    FlatLists reads;
    FlatLists writes;
};

/** Analyze the program. */
ProgramDeps analyzeDeps(const StreamProgram &prog);

} // namespace sps::stream

#endif // SPS_STREAM_DEPS_H
