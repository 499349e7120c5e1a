/**
 * @file
 * The scheduler's dependence graph. Built from a kernel's dataflow
 * graph: pseudo-operations (constants, indices) are free and elided;
 * phi nodes are eliminated by turning each (source -> phi -> user)
 * chain into a direct loop-carried edge with the phi's distance; token
 * edges serialize side effects.
 *
 * Building it has two halves. The skeleton (which ops become nodes,
 * the edges and the adjacency) depends on the kernel alone; the fill
 * gives the nodes their unit class and timing and the edges their
 * latency on one machine. compileKernel builds each skeleton once per
 * kernel and fills it once per machine.
 */
#ifndef SPS_SCHED_DEPGRAPH_H
#define SPS_SCHED_DEPGRAPH_H

#include <cstdint>
#include <vector>

#include "common/flat_lists.h"
#include "kernel/ir.h"
#include "sched/machine.h"

namespace sps::sched {

/** One dependence: to must issue >= lat cycles after from, distance
 *  iterations later. */
struct DepEdge
{
    int from = 0;
    int to = 0;
    int latency = 0;
    int distance = 0;
};

/** A schedulable node: one kernel operation that occupies a unit. */
struct DepNode
{
    isa::Opcode code = isa::Opcode::IAdd;
    int latency = 1;
    int issueInterval = 1;
    isa::FuClass cls = isa::FuClass::Adder;
};

/** The full graph with forward/backward adjacency. */
struct DepGraph
{
    std::vector<DepNode> nodes;
    std::vector<DepEdge> edges;
    FlatLists succ; // edge indices by from-node, in edge order
    FlatLists pred; // edge indices by to-node, in edge order

    int nodeCount() const { return static_cast<int>(nodes.size()); }
};

/** Where a skeleton edge's latency comes from on a machine. */
enum class EdgeLatency : uint8_t
{
    /** The producer's latency: a data edge, or a scratchpad read
     *  after a write, which must wait for the write to land. */
    Producer,
    /** One cycle: a token that only forces issue order. */
    One,
};

/** A dependence before a machine gives it a latency. */
struct SkeletonEdge
{
    int from = 0;
    int to = 0;
    int distance = 0;
    EdgeLatency latency = EdgeLatency::Producer;
};

/** The machine-independent half of a kernel's dependence graph. */
struct DepSkeleton
{
    /** Each node's opcode, in kernel op order. */
    std::vector<isa::Opcode> codes;
    std::vector<SkeletonEdge> edges;
    FlatLists succ;
    FlatLists pred;
};

/** The skeleton of a kernel's dependence graph. */
DepSkeleton buildDepSkeleton(const kernel::Kernel &k);

/** The skeleton's graph on machine `m`: nodes take their issue class
 *  and timing, and edges their latency. */
DepGraph fillDepGraph(const DepSkeleton &s, const MachineModel &m);

/** Build the dependence graph of a kernel for a machine. */
DepGraph buildDepGraph(const kernel::Kernel &k, const MachineModel &m);

} // namespace sps::sched

#endif // SPS_SCHED_DEPGRAPH_H
