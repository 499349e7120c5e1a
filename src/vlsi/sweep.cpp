#include "vlsi/sweep.h"

#include "common/log.h"
#include "common/parallel.h"

namespace sps::vlsi {

namespace {

SweepPoint
evaluate(const CostModel &model, MachineSize size)
{
    SweepPoint pt;
    pt.size = size;
    pt.area = model.area(size);
    pt.energy = model.energy(size);
    pt.delay = model.delay(size);
    pt.areaPerAlu = model.areaPerAlu(size);
    pt.energyPerAluOp = model.energyPerAluOp(size);
    return pt;
}

/** Evaluate all sizes on the pool, or inline without one; out[i]
 *  always belongs to sizes[i]. */
std::vector<SweepPoint>
evaluateAll(const CostModel &model,
            const std::vector<MachineSize> &sizes, ThreadPool *pool)
{
    std::vector<SweepPoint> out(sizes.size());
    auto fill = [&](size_t i) { out[i] = evaluate(model, sizes[i]); };
    if (pool)
        pool->forEach(sizes.size(), fill);
    else
        for (size_t i = 0; i < sizes.size(); ++i)
            fill(i);
    return out;
}

} // namespace

std::vector<double>
SweepSeries::normalizedAreaPerAlu() const
{
    SPS_ASSERT(refIndex < points.size(), "bad reference index");
    std::vector<double> out;
    out.reserve(points.size());
    double ref = points[refIndex].areaPerAlu;
    for (const auto &pt : points)
        out.push_back(pt.areaPerAlu / ref);
    return out;
}

std::vector<double>
SweepSeries::normalizedEnergyPerOp() const
{
    SPS_ASSERT(refIndex < points.size(), "bad reference index");
    std::vector<double> out;
    out.reserve(points.size());
    double ref = points[refIndex].energyPerAluOp;
    for (const auto &pt : points)
        out.push_back(pt.energyPerAluOp / ref);
    return out;
}

SweepSeries
intraclusterSweep(const CostModel &model, int c,
                  const std::vector<int> &n_values, int ref_n,
                  ThreadPool *pool)
{
    SweepSeries series;
    std::vector<MachineSize> sizes;
    bool found_ref = false;
    for (int n : n_values) {
        if (n == ref_n) {
            series.refIndex = sizes.size();
            found_ref = true;
        }
        sizes.push_back(MachineSize{c, n});
    }
    SPS_ASSERT(found_ref, "reference N=%d not in sweep range", ref_n);
    series.points = evaluateAll(model, sizes, pool);
    return series;
}

SweepSeries
interclusterSweep(const CostModel &model, int n,
                  const std::vector<int> &c_values, int ref_c,
                  ThreadPool *pool)
{
    SweepSeries series;
    std::vector<MachineSize> sizes;
    bool found_ref = false;
    for (int c : c_values) {
        if (c == ref_c) {
            series.refIndex = sizes.size();
            found_ref = true;
        }
        sizes.push_back(MachineSize{c, n});
    }
    SPS_ASSERT(found_ref, "reference C=%d not in sweep range", ref_c);
    series.points = evaluateAll(model, sizes, pool);
    return series;
}

std::vector<int>
defaultIntraRange()
{
    return {1, 2, 3, 4, 5, 6, 8, 10, 12, 14, 16, 20, 24, 32,
            48, 64, 96, 128};
}

std::vector<int>
defaultInterRange()
{
    return {8, 16, 32, 64, 128, 256};
}

} // namespace sps::vlsi
