#include "trace/counters_csv.h"

#include <cstdio>
#include <type_traits>

namespace sps::trace {

namespace {

void
addExact(std::vector<CounterValue> &out, std::string name, int64_t v)
{
    out.push_back(CounterValue{std::move(name), static_cast<double>(v),
                               true});
}

void
addRate(std::vector<CounterValue> &out, std::string name, double v)
{
    out.push_back(CounterValue{std::move(name), v, false});
}

/** One cell per scalar field of a tabled struct, named `prefix` +
 *  field name: integers and flags exact, doubles as rates. Vectors
 *  have no cell (callers summarize them). */
template <typename T>
void
addFields(std::vector<CounterValue> &out, const std::string &prefix,
          const T &obj)
{
    forEachField(obj, [&](const char *name, const auto &v) {
        using V = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<V, double>)
            addRate(out, prefix + name, v);
        else if constexpr (std::is_integral_v<V>)
            addExact(out, prefix + name, v);
    });
}

/** The bottleneck waterfall and the energy breakdown: the tail of the
 *  counters CSV and the whole energy CSV. */
void
addReportSections(std::vector<CounterValue> &out, const sim::SimResult &r)
{
    addFields(out, "bn_", r.bottleneck);
    const energy::EnergyReport &e = r.energy;
    // The flag and the per-component split; the report's denominators
    // and process conversion enter only through the rates below.
    forEachField(e, [&out](const char *name, const auto &v) {
        using V = std::remove_cvref_t<decltype(v)>;
        if constexpr (std::is_same_v<V, bool>)
            addExact(out, std::string("energy_") + name, v);
        else if constexpr (std::is_same_v<V, energy::ComponentEnergy>)
            addFields(out, std::string("energy_") + name + "_", v);
    });
    addRate(out, "energy_total_ew", e.totalEw());
    addRate(out, "energy_scaled_total_ew", e.scaledTotalEw());
    addRate(out, "energy_per_alu_op_ew", e.energyPerAluOpEw());
    addRate(out, "energy_scaled_per_alu_op_ew",
            e.scaledEnergyPerAluOpEw());
    addRate(out, "energy_per_output_word_ew",
            e.energyPerOutputWordEw());
    addRate(out, "avg_power_watts", e.averagePowerWatts());
}

} // namespace

std::string
CounterValue::toCell() const
{
    char buf[48];
    if (exact)
        std::snprintf(buf, sizeof buf, "%lld",
                      static_cast<long long>(value));
    else
        std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

std::vector<CounterValue>
counterValues(const sim::SimResult &r)
{
    std::vector<CounterValue> out;
    out.reserve(72);
    addExact(out, "schema_version", kCountersSchemaVersion);
    // Headline aggregates.
    addExact(out, "cycles", r.cycles);
    addExact(out, "alu_ops", r.aluOps);
    addExact(out, "mem_words", r.memWords);
    addExact(out, "mem_busy_cycles", r.memBusy);
    addExact(out, "uc_busy_cycles", r.ucBusy);
    addExact(out, "srf_high_water_words", r.srfHighWater);
    // The hardware counters, in table order (sim/stats.h); the
    // per-channel busy vector is summarized by its extremes.
    addFields(out, "", r.counters);
    addExact(out, "dram_channel_busy_max", r.dramChannelBusyMax());
    addExact(out, "dram_channel_busy_min", r.dramChannelBusyMin());
    // Derived rates (tolerance-compared).
    addRate(out, "alu_occupancy", r.aluOccupancy());
    addRate(out, "kernel_alu_occupancy", r.kernelAluOccupancy());
    addRate(out, "srf_read_bw_words_per_cycle", r.srfReadBandwidth());
    addRate(out, "srf_write_bw_words_per_cycle",
            r.srfWriteBandwidth());
    addRate(out, "dram_row_hit_rate", r.dramRowHitRate());
    addRate(out, "dram_avg_reorder_distance",
            r.dramAvgReorderDistance());
    addRate(out, "mem_busy_fraction", r.memBusyFraction());
    addRate(out, "uc_busy_fraction", r.ucBusyFraction());
    addRate(out, "gops_ops", r.gopsOps);
    addReportSections(out, r);
    return out;
}

std::vector<std::string>
counterNames()
{
    std::vector<std::string> names;
    for (const CounterValue &cv : counterValues(sim::SimResult{}))
        names.push_back(cv.name);
    return names;
}

void
beginCountersCsv(CsvWriter &w, std::vector<std::string> key_columns)
{
    for (const std::string &name : counterNames())
        key_columns.push_back(name);
    w.header(std::move(key_columns));
}

void
appendCountersRow(CsvWriter &w, std::vector<std::string> key_cells,
                  const sim::SimResult &r)
{
    for (const CounterValue &cv : counterValues(r))
        key_cells.push_back(cv.toCell());
    w.row(std::move(key_cells));
}

std::vector<CounterValue>
energyValues(const sim::SimResult &r)
{
    std::vector<CounterValue> out;
    out.reserve(24);
    addExact(out, "schema_version", kCountersSchemaVersion);
    addReportSections(out, r);
    return out;
}

std::vector<std::string>
energyNames()
{
    std::vector<std::string> names;
    for (const CounterValue &cv : energyValues(sim::SimResult{}))
        names.push_back(cv.name);
    return names;
}

void
beginEnergyCsv(CsvWriter &w, std::vector<std::string> key_columns)
{
    for (const std::string &name : energyNames())
        key_columns.push_back(name);
    w.header(std::move(key_columns));
}

void
appendEnergyRow(CsvWriter &w, std::vector<std::string> key_cells,
                const sim::SimResult &r)
{
    for (const CounterValue &cv : energyValues(r))
        key_cells.push_back(cv.toCell());
    w.row(std::move(key_cells));
}

} // namespace sps::trace
