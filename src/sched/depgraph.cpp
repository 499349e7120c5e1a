#include "sched/depgraph.h"

#include <string>

#include "common/log.h"

namespace sps::sched {

using isa::FuClass;
using isa::Opcode;
using kernel::Kernel;
using kernel::kNoValue;
using kernel::ValueId;

namespace {

/** A resolved dependence source: real node plus accumulated distance. */
struct Source
{
    int node;
    int distance;
};

/**
 * Resolve a value id to its real producing node, walking through phi
 * nodes and accumulating their distances. Constants and other pseudo
 * leaves resolve to nothing (always available).
 */
void
resolve(const Kernel &k, const std::vector<int> &node_of, ValueId v,
        int dist, std::vector<Source> &out, int depth = 0)
{
    SPS_ASSERT(depth < 64, "phi chain too deep (cycle of phis?)");
    const kernel::Op &op = k.op(v);
    if (op.code == Opcode::Phi) {
        SPS_ASSERT(op.args[0] != kNoValue,
                   "kernel %s: phi %d has no source", k.name.c_str(), v);
        resolve(k, node_of, op.args[0], dist + op.distance, out,
                depth + 1);
        return;
    }
    int n = node_of[static_cast<size_t>(v)];
    if (n >= 0)
        out.push_back(Source{n, dist});
    // else: pseudo leaf (constant, loop index, ...), no dependence.
}

} // namespace

DepSkeleton
buildDepSkeleton(const Kernel &k)
{
    DepSkeleton s;
    std::vector<int> node_of(k.ops.size(), -1);

    // An op's issue class is None on every machine or on none
    // (MachineModel::issueClass only moves Dsq to the multipliers).
    for (size_t i = 0; i < k.ops.size(); ++i) {
        if (isa::fuClassOf(k.ops[i].code) == FuClass::None)
            continue;
        node_of[i] = static_cast<int>(s.codes.size());
        s.codes.push_back(k.ops[i].code);
    }

    std::vector<Source> sources;
    for (size_t i = 0; i < k.ops.size(); ++i) {
        const kernel::Op &op = k.ops[i];
        int to = node_of[i];
        if (to < 0)
            continue;
        sources.clear();
        for (ValueId a : op.args)
            resolve(k, node_of, a, 0, sources);
        for (const Source &src : sources)
            s.edges.push_back(SkeletonEdge{src.node, to, src.distance,
                                           EdgeLatency::Producer});
        for (ValueId t : op.orderAfter) {
            int from = node_of[static_cast<size_t>(t)];
            if (from < 0)
                continue;
            // Serializing token: a scratchpad read after a write must
            // wait for the write to land; other tokens just force
            // issue order.
            bool wr_rd = k.op(t).code == Opcode::SpWrite &&
                         op.code == Opcode::SpRead;
            s.edges.push_back(SkeletonEdge{
                from, to, 0,
                wr_rd ? EdgeLatency::Producer : EdgeLatency::One});
        }
    }

    s.succ = FlatLists::groupBy(s.codes.size(), s.edges.size(),
                                [&](size_t e) { return s.edges[e].from; });
    s.pred = FlatLists::groupBy(s.codes.size(), s.edges.size(),
                                [&](size_t e) { return s.edges[e].to; });
    return s;
}

DepGraph
fillDepGraph(const DepSkeleton &s, const MachineModel &m)
{
    DepGraph g;
    g.nodes.resize(s.codes.size());
    for (size_t i = 0; i < s.codes.size(); ++i) {
        DepNode &node = g.nodes[i];
        node.code = s.codes[i];
        node.cls = m.issueClass(node.code);
        SPS_ASSERT(m.unitCount(node.cls) >= 1,
                   "not executable: no unit for %s",
                   std::string(isa::mnemonic(node.code)).c_str());
        isa::OpTiming t = m.timing(node.code);
        node.latency = t.latency;
        node.issueInterval = t.issueInterval;
    }
    g.edges.resize(s.edges.size());
    for (size_t e = 0; e < s.edges.size(); ++e) {
        const SkeletonEdge &se = s.edges[e];
        g.edges[e] = DepEdge{
            se.from, se.to,
            se.latency == EdgeLatency::Producer
                ? g.nodes[static_cast<size_t>(se.from)].latency
                : 1,
            se.distance};
    }
    g.succ = s.succ;
    g.pred = s.pred;
    return g;
}

DepGraph
buildDepGraph(const Kernel &k, const MachineModel &m)
{
    return fillDepGraph(buildDepSkeleton(k), m);
}

} // namespace sps::sched
