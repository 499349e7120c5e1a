/**
 * @file
 * End-to-end assertions of the paper's headline claims (abstract and
 * Section 5), run against the full reproduction stack. Bands are
 * deliberately loose: the shapes, crossovers, and orderings are what
 * the reproduction must preserve (see EXPERIMENTS.md for the
 * measured-vs-paper table).
 */
#include <map>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "core/experiments.h"
#include "svc/eval_service.h"

namespace sps::core {
namespace {

class AppPerformanceFixture : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        svc::EvalService service;
        points_ = new std::vector<AppPoint>(
            service.appPerformance({8, 32, 128}, {5, 10}));
    }

    static void
    TearDownTestSuite()
    {
        delete points_;
        points_ = nullptr;
    }

    static double
    speedup(const std::string &app, int c, int n)
    {
        for (const auto &pt : *points_)
            if (pt.app == app && pt.size.clusters == c &&
                pt.size.alusPerCluster == n)
                return pt.speedup;
        ADD_FAILURE() << "missing point " << app;
        return 0.0;
    }

    static double
    gops(const std::string &app, int c, int n)
    {
        for (const auto &pt : *points_)
            if (pt.app == app && pt.size.clusters == c &&
                pt.size.alusPerCluster == n)
                return pt.gops;
        ADD_FAILURE() << "missing point " << app;
        return 0.0;
    }

    static std::vector<AppPoint> *points_;
};

std::vector<AppPoint> *AppPerformanceFixture::points_ = nullptr;

TEST_F(AppPerformanceFixture, EveryAppSpeedsUpWithClusters)
{
    for (const char *app :
         {"RENDER", "DEPTH", "CONV", "QRD", "FFT1K", "FFT4K"}) {
        EXPECT_GT(speedup(app, 32, 5), speedup(app, 8, 5) * 1.2)
            << app;
        EXPECT_GT(speedup(app, 128, 5), speedup(app, 32, 5) * 0.99)
            << app;
    }
}

TEST_F(AppPerformanceFixture, RenderScalesBestAmongMediaApps)
{
    // RENDER's stream lengths are limited only by scene size, so it
    // scales furthest (paper: 20.5x at C=128 N=10).
    double r = speedup("RENDER", 128, 10);
    EXPECT_GT(r, speedup("DEPTH", 128, 10));
    EXPECT_GT(r, speedup("CONV", 128, 10));
    EXPECT_GT(r, speedup("QRD", 128, 10));
    EXPECT_GT(r, 10.0);
}

TEST_F(AppPerformanceFixture, QrdScalesWorstDueToSerialBasis)
{
    // QRD's orthogonal-basis phase and short streams cap its scaling
    // (paper: 5.4x at C=128 N=10, the worst of the suite).
    double q = speedup("QRD", 128, 10);
    for (const char *app :
         {"RENDER", "DEPTH", "CONV", "FFT1K", "FFT4K"})
        EXPECT_LT(q, speedup(app, 128, 10) * 1.3) << app;
    EXPECT_LT(q, 8.0);
    EXPECT_GT(q, 2.5);
}

TEST_F(AppPerformanceFixture, ShortStreamsThrottleFft1kVsFft4k)
{
    // Section 5.3: at C=128 N=10 the raw-performance difference
    // between FFT4K and FFT1K "is due purely to stream length"
    // (211 vs 103 GFLOPS, about 2x).
    double g1 = gops("FFT1K", 128, 10);
    double g4 = gops("FFT4K", 128, 10);
    EXPECT_GT(g4, 1.5 * g1);
    EXPECT_LT(g4, 4.0 * g1);
    EXPECT_GT(speedup("FFT4K", 128, 10), speedup("FFT1K", 128, 10));
}

TEST_F(AppPerformanceFixture, QrdStallsBeyond32Clusters)
{
    // "QRD and FFT1K scale poorly for C > 32".
    double gain = speedup("QRD", 128, 5) / speedup("QRD", 32, 5);
    EXPECT_LT(gain, 2.5); // nowhere near the 4x cluster ratio
}

TEST_F(AppPerformanceFixture, HarmonicMeanNearPaper)
{
    // Paper: 10.4x harmonic-mean app speedup at C=128 N=10 (and 8.0x
    // at C=128 N=5 for the 640-ALU machine).
    std::vector<double> sp;
    for (const char *app :
         {"RENDER", "DEPTH", "CONV", "QRD", "FFT1K", "FFT4K"})
        sp.push_back(speedup(app, 128, 10));
    double hm = harmonicMean(sp);
    EXPECT_GT(hm, 6.0);
    EXPECT_LT(hm, 15.0);

    std::vector<double> sp640;
    for (const char *app :
         {"RENDER", "DEPTH", "CONV", "QRD", "FFT1K", "FFT4K"})
        sp640.push_back(speedup(app, 128, 5));
    double hm640 = harmonicMean(sp640);
    EXPECT_GT(hm640, 4.0);
    EXPECT_LT(hm640, 12.0);
    EXPECT_LT(hm640, hm);
}

TEST_F(AppPerformanceFixture, SustainedGopsInPaperBallpark)
{
    // Baseline C=8 N=5 sustained rates: the paper reports 15-41 GOPS
    // across the suite; allow 2x bands around that range.
    for (const char *app : {"RENDER", "DEPTH", "CONV", "QRD"}) {
        double g = gops(app, 8, 5);
        EXPECT_GT(g, 7.0) << app;
        EXPECT_LT(g, 90.0) << app;
    }
    // C=128 N=10 sustains hundreds of GOPS on the data-parallel apps
    // (paper: 311-469).
    EXPECT_GT(gops("RENDER", 128, 10), 150.0);
    EXPECT_GT(gops("CONV", 128, 10), 150.0);
}

TEST(PaperClaimsTest, Headline640AluMachine)
{
    // Abstract: "A 640-ALU stream processor ... sustaining over 300
    // GOPS on kernels and providing 15.3x of kernel speedup ... with
    // a 2% degradation in area per ALU and a 7% degradation in energy
    // dissipated per ALU operation."
    Headline h = headlineNumbers(/*include_apps=*/false);
    EXPECT_GT(h.kernelGops640, 300.0);
    EXPECT_NEAR(h.kernelSpeedup640, 15.3, 3.0);
    EXPECT_NEAR(h.areaPerAluDegradation640, 0.02, 0.015);
    EXPECT_NEAR(h.energyPerOpDegradation640, 0.07, 0.02);
}

TEST(PaperClaimsTest, KernelSpeedup1280InBand)
{
    // "A C=128 N=10 processor achieves a speedup of 27.9x ... on the
    // harmonic mean of 6 kernels."
    Headline h = headlineNumbers(/*include_apps=*/false);
    EXPECT_GT(h.kernelSpeedup1280, 20.0);
    EXPECT_LT(h.kernelSpeedup1280, 36.0);
}

} // namespace
} // namespace sps::core
