/**
 * @file
 * interp_kernels: the six Table-4 kernels through interp::runKernel on
 * the host's best SIMD backend, at C=8 (the power-of-two COMM fast
 * path) and C=3 (the generic path), on seeded input values. Each
 * (kernel, C) pair runs on kChunks separate seeded streams, so a pass
 * is 192 kernel runs -- enough operations for a latency tail -- in a
 * seeded order; every output is compared with
 * interp::runKernelReference outside the timed calls.
 *
 * Set-up makes the inputs, the reference outputs, and the lowered
 * kernels, and compiles the kernel suite at the anchor sizes: the
 * kernel half of the paper anchors is what this workload reports
 * fidelity on.
 */
#include <cmath>
#include <cstdio>
#include <map>

#include "workloads.h"

#include "common/prng.h"
#include "core/eval_engine.h"
#include "interp/interpreter.h"
#include "interp/lowered.h"
#include "sched/schedule_cache.h"
#include "workloads/kernels/kernels.h"
#include "workloads/suite.h"

namespace perfbench {

namespace {

using namespace sps;
using interp::StreamData;

/** Records per kernel run (0.05-0.5 ms of SIMD work), and runs per
 *  (kernel, C) pair in a pass. */
constexpr int64_t kRecords = 2048;
constexpr int kChunks = 16;
constexpr int kClusterCounts[] = {8, 3};

/** Seeded inputs for one Table-4 kernel (port shapes are fixed). */
std::vector<StreamData>
makeInputs(const std::string &name, uint64_t seed)
{
    Prng rng(seed);
    auto ints = [&](int per_record, int32_t lo, int32_t hi) {
        std::vector<int32_t> v;
        for (int64_t i = 0; i < kRecords * per_record; ++i)
            v.push_back(lo + static_cast<int32_t>(rng.below(
                                 static_cast<uint32_t>(hi - lo))));
        return StreamData::fromInts(v, per_record);
    };
    auto floats = [&](int per_record, float lo, float hi) {
        std::vector<float> v;
        for (int64_t i = 0; i < kRecords * per_record; ++i)
            v.push_back(rng.uniform(lo, hi));
        return StreamData::fromFloats(v, per_record);
    };
    if (name == "blocksad")
        return {ints(workloads::kPixelsPerRecord, 0, 255),
                ints(workloads::kPixelsPerRecord, 0, 255)};
    if (name == "convolve")
        return {ints(workloads::kPixelsPerRecord, -512, 512)};
    if (name == "update")
        return {floats(2, -2.0f, 2.0f),
                floats(workloads::kUpdateRank, -1.0f, 1.0f)};
    if (name == "fft") {
        StreamData x = floats(8, -1.0f, 1.0f);
        std::vector<float> tw;
        for (int64_t i = 0; i < kRecords * 3; ++i) {
            float ang = rng.uniform(0.0f, 6.283f);
            tw.push_back(std::cos(ang));
            tw.push_back(std::sin(ang));
        }
        return {x, StreamData::fromFloats(tw, 6)};
    }
    if (name == "noise")
        return {floats(2, -20.0f, 20.0f)};
    if (name == "irast")
        return {ints(5, 0, 256)};
    return {};
}

bool
sameOutputs(const interp::ExecResult &a, const interp::ExecResult &b)
{
    if (a.outputs.size() != b.outputs.size())
        return false;
    for (size_t i = 0; i < a.outputs.size(); ++i) {
        const StreamData &x = a.outputs[i];
        const StreamData &y = b.outputs[i];
        if (x.recordWords != y.recordWords ||
            x.words.size() != y.words.size())
            return false;
        for (size_t w = 0; w < x.words.size(); ++w)
            if (x.words[w].bits != y.words[w].bits)
                return false;
    }
    return true;
}

/** One timed kernel run of a pass. */
struct Case
{
    std::string name; ///< interp.<kernel>.c<C>, shared by its chunks
    const kernel::Kernel *k = nullptr;
    int clusters = 0;
    std::vector<StreamData> inputs;
    interp::ExecResult expected;
    double words = 0.0;
};

} // namespace

Report
runInterpKernels(const Options &opt)
{
    Report rep;
    const interp::SimdBackend backend = interp::bestSimdBackend();
    auto suite = workloads::kernelSuite();
    core::EvalEngine serial(1);
    Anchors anchors;
    std::vector<Case> cases;

    // Seven repetitions: one set-up is short enough for a burst of
    // other load on the host to swing a median of three.
    double setup_s = timedSetup([&] {
        cases.clear();
        interp::LoweredCache::global().clear();
        sched::ScheduleCache::global().clear();
        for (size_t k = 0; k < suite.size(); ++k) {
            for (int chunk = 0; chunk < kChunks; ++chunk) {
                auto inputs = makeInputs(suite[k].name,
                                         (opt.seed * 31 + k) * 97 + chunk);
                for (int c : kClusterCounts) {
                    Case cs;
                    cs.name = "interp." + suite[k].name + ".c" +
                              std::to_string(c);
                    cs.k = suite[k].kernel;
                    cs.clusters = c;
                    cs.inputs = inputs;
                    cs.expected =
                        interp::runKernelReference(*cs.k, c, cs.inputs);
                    for (const auto &s : cs.inputs)
                        cs.words += static_cast<double>(s.words.size());
                    for (const auto &s : cs.expected.outputs)
                        cs.words += static_cast<double>(s.words.size());
                    interp::LoweredCache::global().get(*cs.k);
                    cases.push_back(std::move(cs));
                }
            }
        }
        anchors.setKernel(core::headlineNumbers(false, &serial));
    }, 7);

    PassLog plain, traced;
    auto pass = [&](PassLog &log, uint64_t order_seed) {
        std::vector<interp::ExecResult> outs(cases.size());
        const auto order = permutation(cases.size(), order_seed);
        Pass p;
        p.latencyMs.resize(cases.size());
        for (size_t i : order) {
            const Case &cs = cases[i];
            auto t0 = Clock::now();
            outs[i] = interp::runKernel(*cs.k, cs.clusters, cs.inputs,
                                        backend);
            double s = secondsSince(t0);
            p.seconds += s;
            p.latencyMs[i] = s * 1e3;
            p.words += cs.words;
        }
        p.ops = static_cast<double>(cases.size());
        log.passes.push_back(std::move(p));
        for (size_t i = 0; i < cases.size(); ++i)
            rep.check(sameOutputs(outs[i], cases[i].expected),
                      cases[i].name + " differs from the reference "
                                      "interpreter");
    };
    // The interpreter has no internal instrumentation to switch on:
    // a traced pass is the same timed loop, so its overhead reads ~0.
    double rss_mb = passLoop(
        opt, [&](uint64_t seed) { pass(plain, seed); },
        [&](uint64_t seed) {
            pass(traced, seed);
            std::map<std::string, std::pair<double, double>> byPair;
            for (size_t i = 0; i < cases.size(); ++i) {
                auto &[words, ms] = byPair[cases[i].name];
                words += cases[i].words;
                ms += traced.passes.back().latencyMs[i];
            }
            for (const auto &[name, wm] : byPair)
                traced.layer(name + ".mwords_per_s",
                             wm.first / (wm.second * 1e3));
        });

    std::printf("interp_kernels: backend %s, %d runs of %lld records "
                "per (kernel, C)\n",
                interp::simdBackendName(backend), kChunks,
                static_cast<long long>(kRecords));
    double err = anchors.errorPct();
    if (opt.trace) {
        reportLayers(rep, plain, traced);
        for (const auto &entry : suite)
            rep.layers["interp." + entry.name + ".fused_fraction"] =
                interp::LoweredCache::global()
                    .get(*entry.kernel)
                    .fusedOpFraction(interp::FusionPolicy::Partial);
    } else {
        reportEndToEnd(rep, setup_s, rss_mb, plain, err, "kernel run");
    }
    return rep;
}

} // namespace perfbench
