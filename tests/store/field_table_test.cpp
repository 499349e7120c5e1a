// Completeness of the field tables (common/fields.h): every member of
// every tabled struct has exactly one table entry, and every field
// reaches every consumer -- perturbing it changes the store-codec bytes
// and survives a round trip, changes simConfigHash and survives the
// protocol's config override (SimConfig), and changes its own
// counters-CSV cell (SimCounters, BottleneckReport, ComponentEnergy).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/processor.h"
#include "store/codec.h"
#include "svc/eval_service.h"
#include "svc/protocol.h"
#include "trace/counters_csv.h"

namespace sps {
namespace {

/** Converts to any member type, so `T{AnyField{}...}` compiles for up
 *  to T's member count initializers and no more. */
struct AnyField
{
    template <typename T>
    operator T() const;
};

template <typename T, typename... A>
constexpr size_t
memberCount()
{
    if constexpr (requires { T{A{}..., AnyField{}}; })
        return memberCount<T, A..., AnyField>();
    else
        return sizeof...(A);
}

template <typename T>
void
expectOneEntryPerMember(const char *type)
{
    T obj{};
    size_t entries = 0;
    std::set<std::string> names;
    std::set<const void *> members;
    forEachField(obj, [&](const char *name, auto &m) {
        ++entries;
        names.insert(name);
        members.insert(&m);
    });
    EXPECT_EQ(entries, memberCount<T>()) << type;
    EXPECT_EQ(names.size(), entries) << type << ": duplicate name";
    EXPECT_EQ(members.size(), entries) << type << ": duplicate member";
}

TEST(FieldTableTest, EveryMemberHasExactlyOneEntry)
{
    expectOneEntryPerMember<sim::SimResult>("SimResult");
    expectOneEntryPerMember<sim::OpInterval>("OpInterval");
    expectOneEntryPerMember<sim::SimCounters>("SimCounters");
    expectOneEntryPerMember<energy::EnergyReport>("EnergyReport");
    expectOneEntryPerMember<energy::ComponentEnergy>("ComponentEnergy");
    expectOneEntryPerMember<analysis::BottleneckReport>(
        "BottleneckReport");
    expectOneEntryPerMember<sched::CompiledKernel>("CompiledKernel");
    expectOneEntryPerMember<sim::SimConfig>("SimConfig");
    expectOneEntryPerMember<vlsi::MachineSize>("MachineSize");
    expectOneEntryPerMember<vlsi::Params>("Params");
    expectOneEntryPerMember<vlsi::Technology>("Technology");
    expectOneEntryPerMember<mem::StreamMemConfig>("StreamMemConfig");
    expectOneEntryPerMember<mem::DramTiming>("DramTiming");
    expectOneEntryPerMember<sim::UcConfig>("UcConfig");
    expectOneEntryPerMember<energy::AccountantConfig>("AccountantConfig");
    expectOneEntryPerMember<energy::DramEnergyParams>("DramEnergyParams");
}

/** Change `v` to a different value of its type. */
template <typename T>
void
bump(T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        v = !v;
    } else if constexpr (std::is_arithmetic_v<T>) {
        v = v * 3 + 7; // a fixed point only at -3.5
    } else if constexpr (std::is_same_v<T, std::string>) {
        v += "x";
    } else if constexpr (std::is_same_v<T, sim::OpClass>) {
        v = v == sim::OpClass::Load ? sim::OpClass::Store
                                    : sim::OpClass::Load;
    } else {
        v.emplace_back();
        if constexpr (!HasFields<typename T::value_type>)
            bump(v.back());
    }
}

/** fn(path, leaf) for every non-struct member reachable through the
 *  tables, path dotted from the root ("energy.srf.dyn_ew"). A vector
 *  is one leaf. */
template <typename T, typename Fn>
void
forEachLeaf(T &obj, const std::string &path, Fn &&fn)
{
    if constexpr (HasFields<T>)
        forEachField(obj, [&](const char *name, auto &m) {
            forEachLeaf(m, path.empty() ? name : path + "." + name, fn);
        });
    else
        fn(path, obj);
}

/** One copy of `base` per leaf, with that leaf bumped, keyed by path. */
template <typename T>
std::map<std::string, T>
perturbations(const T &base)
{
    std::map<std::string, T> out;
    T probe = base;
    forEachLeaf(probe, "", [&](const std::string &path, auto &) {
        T copy = base;
        forEachLeaf(copy, "", [&](const std::string &p, auto &leaf) {
            if (p == path)
                bump(leaf);
        });
        out.emplace(path, std::move(copy));
    });
    return out;
}

template <typename T>
std::vector<uint8_t>
encoded(const T &v)
{
    store::ByteWriter w;
    store::encodeValue(v, &w);
    return w.bytes();
}

template <typename T>
void
expectEveryFieldReachesCodec(const T &base)
{
    const std::vector<uint8_t> base_bytes = encoded(base);
    for (const auto &[path, v] : perturbations(base)) {
        std::vector<uint8_t> bytes = encoded(v);
        EXPECT_NE(bytes, base_bytes) << path << " is not encoded";
        store::ByteReader r(bytes);
        T back;
        ASSERT_TRUE(store::decodeValue(&r, &back) && r.done()) << path;
        EXPECT_EQ(encoded(back), bytes) << path << " does not round trip";
    }
}

TEST(FieldTableTest, EveryResultFieldReachesStoreCodec)
{
    expectEveryFieldReachesCodec(sim::SimResult{});
    expectEveryFieldReachesCodec(sim::OpInterval{});
    expectEveryFieldReachesCodec(sched::CompiledKernel{});

    // The public entry points are the same walk.
    sim::SimResult res;
    res.timeline.emplace_back();
    store::ByteWriter w;
    store::encodeSimResult(res, &w);
    EXPECT_EQ(w.bytes(), encoded(res));
    sched::CompiledKernel ck;
    store::ByteWriter wk;
    store::encodeCompiledKernel(ck, &wk);
    EXPECT_EQ(wk.bytes(), encoded(ck));
}

std::vector<uint8_t>
requestBytes(const sim::SimConfig &cfg)
{
    store::ByteWriter w;
    svc::encodeEvalRequest(svc::EvalPoint{"DEPTH", {8, 5}, cfg}, &w);
    return w.bytes();
}

TEST(FieldTableTest, EverySimConfigFieldReachesHashAndWire)
{
    const sim::SimConfig base;
    const uint64_t base_hash = svc::simConfigHash(base);
    EXPECT_EQ(svc::simConfigHash(base), base_hash);
    const std::vector<uint8_t> base_bytes = requestBytes(base);
    // 2 size, 33 params, 4 tech, 9 memory, 1 microcontroller, host
    // issue, scoreboard, 4 energy: a new leaf is a protocol change.
    EXPECT_EQ(perturbations(base).size(), 55u);
    for (const auto &[path, cfg] : perturbations(base)) {
        EXPECT_NE(svc::simConfigHash(cfg), base_hash)
            << path << " is not hashed";
        std::vector<uint8_t> bytes = requestBytes(cfg);
        EXPECT_NE(bytes, base_bytes) << path << " is not sent";
        svc::EvalPoint back;
        ASSERT_TRUE(svc::decodeEvalRequest(bytes, &back)) << path;
        ASSERT_TRUE(back.config.has_value()) << path;
        EXPECT_EQ(svc::simConfigHash(*back.config),
                  svc::simConfigHash(cfg))
            << path << " does not round trip";
        EXPECT_EQ(requestBytes(*back.config), bytes) << path;
    }
}

std::map<std::string, std::string>
csvCells(const sim::SimResult &r)
{
    std::map<std::string, std::string> cells;
    for (const trace::CounterValue &cv : trace::counterValues(r))
        cells[cv.name] = cv.toCell();
    return cells;
}

TEST(FieldTableTest, EveryCounterFieldReachesCountersCsv)
{
    const sim::SimResult base;
    const auto base_cells = csvCells(base);
    int checked = 0;
    for (const auto &[path, res] : perturbations(base)) {
        // The CSV column of a SimCounters, BottleneckReport or
        // ComponentEnergy leaf; other leaves are not CSV cells.
        std::string column;
        if (path.starts_with("counters."))
            column = path.substr(9);
        else if (path.starts_with("bottleneck."))
            column = "bn_" + path.substr(11);
        else if (path.starts_with("energy.") &&
                 path.find('.', 7) != std::string::npos)
            column = "energy_" + path.substr(7);
        else
            continue;
        std::replace(column.begin(), column.end(), '.', '_');
        if (column == "dram_channel_busy_cycles")
            column = "dram_channel_busy_max"; // summarized by extremes
        auto cells = csvCells(res);
        ASSERT_TRUE(cells.count(column)) << path << ": no " << column;
        EXPECT_NE(cells[column], base_cells.at(column))
            << path << " does not reach " << column;
        ++checked;
    }
    // 30 counters, 7 bottleneck fields, 5 components x 2 terms.
    EXPECT_EQ(checked, 30 + 7 + 10);
}

} // namespace
} // namespace sps
