#include "trace/tracer.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "core/eval_engine.h"
#include "sim/processor.h"
#include "trace/chrome_trace.h"
#include "trace/counters_csv.h"
#include "workloads/suite.h"

namespace sps::trace {
namespace {

TEST(TracerTest, RecordsCompleteEvents)
{
    Tracer t;
    t.complete("mem", "load a", 10, 25, kTrackMem, {{"words", 128}});
    ASSERT_EQ(t.size(), 1u);
    TraceEvent ev = t.events()[0];
    EXPECT_EQ(ev.name, "load a");
    EXPECT_EQ(ev.cat, "mem");
    EXPECT_EQ(ev.phase, 'X');
    EXPECT_EQ(ev.ts, 10);
    EXPECT_EQ(ev.dur, 15);
    EXPECT_EQ(ev.tid, kTrackMem);
    ASSERT_EQ(ev.args.size(), 1u);
    EXPECT_EQ(ev.args[0].first, "words");
    EXPECT_EQ(ev.args[0].second, 128);
}

TEST(TracerTest, SpanRecordsBeginEndPair)
{
    Tracer t;
    t.span("kernel", "fft", 100, 250, 7, kTrackClusters);
    ASSERT_EQ(t.size(), 2u);
    auto evs = t.events();
    EXPECT_EQ(evs[0].phase, 'b');
    EXPECT_EQ(evs[1].phase, 'e');
    EXPECT_EQ(evs[0].id, 7);
    EXPECT_EQ(evs[1].id, 7);
    EXPECT_EQ(evs[0].ts, 100);
    EXPECT_EQ(evs[1].ts, 250);
}

TEST(TracerTest, CounterAndClear)
{
    Tracer t;
    t.counter("srf_used_words", 5, 1024);
    EXPECT_EQ(t.events()[0].phase, 'C');
    EXPECT_EQ(t.events()[0].args[0].second, 1024);
    t.setTrackName(kTrackSrf, "SRF");
    t.clear();
    EXPECT_EQ(t.size(), 0u);
    // Track names survive clear().
    EXPECT_EQ(t.trackNames().at(kTrackSrf), "SRF");
}

TEST(TracerTest, ChromeJsonIsWellFormed)
{
    Tracer t;
    t.setTrackName(kTrackMem, "memory");
    t.complete("mem", "load \"x\"\n", 0, 5, kTrackMem);
    t.span("kernel", "k", 2, 9, 3, kTrackClusters, {{"ii", 4}});
    t.counter("srf", 4, 77);
    std::string json = toChromeJson(t);
    // Structural checks without a JSON parser: balanced braces and
    // brackets, escaped specials, all phases present.
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_EQ(std::count(json.begin(), json.end(), '['),
              std::count(json.begin(), json.end(), ']'));
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // The quote and newline in the event name are escaped.
    EXPECT_NE(json.find("load \\\"x\\\"\\n"), std::string::npos);
    for (const char *needle :
         {"\"ph\":\"X\"", "\"ph\":\"b\"", "\"ph\":\"e\"",
          "\"ph\":\"C\"", "\"ph\":\"M\"",
          "\"id\":3", "\"args\":{\"ii\":4}"})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
}

/**
 * One Tracer shared by concurrent simulations on the evaluation
 * engine's pool: the TSan CI job runs this to prove the tracer is
 * race-free under parallel use.
 */
TEST(TracerTest, SharedAcrossEngineThreads)
{
    Tracer tracer;
    core::EvalEngine engine(0);
    const size_t runs = 16;
    std::vector<int64_t> cycles = engine.map(runs, [&](size_t i) {
        sim::SimConfig cfg;
        cfg.size = vlsi::MachineSize{8, static_cast<int>(2 + i % 4)};
        sim::StreamProcessor proc(cfg);
        stream::StreamProgram prog =
            workloads::buildConvApp(cfg.size, proc.srf());
        sim::RunOptions opts;
        opts.tracer = &tracer;
        return proc.run(prog, opts).cycles;
    });
    EXPECT_GT(tracer.size(), 0u);
    for (int64_t c : cycles)
        EXPECT_GT(c, 0);
    // The tracer never perturbs timing: traced == untraced.
    sim::SimConfig cfg;
    cfg.size = vlsi::MachineSize{8, 2};
    sim::StreamProcessor proc(cfg);
    stream::StreamProgram prog =
        workloads::buildConvApp(cfg.size, proc.srf());
    EXPECT_EQ(proc.run(prog).cycles, cycles[0]);
}

TEST(CountersCsvTest, NamesMatchValuesAndRoundTrip)
{
    sim::SimResult r;
    r.cycles = 100;
    r.aluOps = 50;
    r.counters.kernelOnlyCycles = 60;
    r.counters.idleCycles = 40;
    r.counters.dramAccesses = 10;
    r.counters.dramRowHits = 9;
    r.counters.dramRowMisses = 1;
    auto names = counterNames();
    auto values = counterValues(r);
    ASSERT_EQ(names.size(), values.size());
    for (size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(names[i], values[i].name);
    // Exact counters render as integers.
    for (const auto &cv : values) {
        if (cv.exact) {
            EXPECT_EQ(cv.toCell().find('.'), std::string::npos)
                << cv.name;
        }
    }
    CsvWriter w;
    beginCountersCsv(w, {"app"});
    appendCountersRow(w, {"X"}, r);
    std::string csv = w.toString();
    EXPECT_NE(csv.find("app,schema_version,cycles,"),
              std::string::npos);
    EXPECT_NE(csv.find("X,2,100,50,"), std::string::npos);
}

} // namespace
} // namespace sps::trace
