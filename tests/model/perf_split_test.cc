#include <gtest/gtest.h>

#include <cstring>

#include "adg/builders.h"
#include "compiler/compile.h"
#include "model/perf.h"
#include "workloads/suites.h"

namespace overgen::model {
namespace {

/**
 * The factored performance model (precomputeTilePerf +
 * combineSystemPerf) is the form the DSE's nested system grid pays
 * for; estimateIpc is the one-shot reference. The contract (perf.h,
 * DESIGN.md "Model split and grid pruning") is bit-identical
 * results: the summary replays DRAM-demand accumulation in the exact
 * stream order of the reference path, so every double — not just the
 * headline IPC — must match to the last ulp across all workloads and
 * system points.
 */

adg::Adg
splitTestTile(int spad_kib = 32, bool recurrence = true)
{
    adg::MeshConfig config;
    config.rows = 3;
    config.cols = 3;
    config.numPes = 6;
    config.numInPorts = 6;
    config.numOutPorts = 3;
    config.datapathBytes = 32;
    config.spadCapacityKiB = spad_kib;
    config.recurrenceEngine = recurrence;
    config.indirect = true;
    config.dmaBandwidthBytes = 32;
    std::set<FuCapability> caps = adg::intCapabilities(DataType::I64);
    auto f64 = adg::floatCapabilities(DataType::F64);
    caps.insert(f64.begin(), f64.end());
    auto f32 = adg::floatCapabilities(DataType::F32);
    caps.insert(f32.begin(), f32.end());
    auto i16 = adg::intCapabilities(DataType::I16);
    caps.insert(i16.begin(), i16.end());
    config.peCapabilities = caps;
    return adg::buildMeshTile(config);
}

/** Exact double equality including the sign of zero — "the same
 * computation", not "close enough". */
void
expectBitEqual(double a, double b, const std::string &label)
{
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
        << label << ": " << a << " vs " << b;
}

void
expectSameBreakdown(const PerfBreakdown &ref, const PerfBreakdown &split,
                    const std::string &label)
{
    expectBitEqual(ref.ipc, split.ipc, label + " ipc");
    expectBitEqual(ref.workRate, split.workRate, label + " workRate");
    expectBitEqual(ref.instBandwidth, split.instBandwidth,
                   label + " instBandwidth");
    expectBitEqual(ref.fabricFactor, split.fabricFactor,
                   label + " fabricFactor");
    expectBitEqual(ref.spadFactor, split.spadFactor,
                   label + " spadFactor");
    expectBitEqual(ref.l2Factor, split.l2Factor, label + " l2Factor");
    expectBitEqual(ref.dramFactor, split.dramFactor,
                   label + " dramFactor");
    EXPECT_EQ(ref.bottleneck, split.bottleneck) << label;
}

std::vector<adg::SystemParams>
systemPoints()
{
    // Corners chosen to flip the bottleneck between fabric, L2 and
    // DRAM: a starved single tile, the defaults, a wide machine, and
    // a many-tile point where the per-tile L2 share shrinks enough to
    // unfilter large footprints.
    std::vector<adg::SystemParams> points;
    adg::SystemParams sys;
    points.push_back(sys);  // defaults
    sys.numTiles = 1;
    sys.l2Banks = 1;
    sys.l2CapacityKiB = 64;
    sys.nocBytes = 8;
    points.push_back(sys);
    sys = adg::SystemParams{};
    sys.numTiles = 16;
    sys.l2Banks = 16;
    sys.l2CapacityKiB = 1024;
    sys.nocBytes = 64;
    sys.dramChannels = 2;
    points.push_back(sys);
    sys = adg::SystemParams{};
    sys.numTiles = 13;
    sys.l2Banks = 4;
    sys.l2CapacityKiB = 256;
    points.push_back(sys);
    return points;
}

TEST(PerfSplit, MatchesReferenceAcrossAllWorkloadsAndSystemPoints)
{
    adg::Adg tile = splitTestTile();
    std::vector<adg::SystemParams> points = systemPoints();
    int workloads = 0;
    for (const auto &k : wl::allWorkloads()) {
        dfg::Mdfg mdfg = compiler::compileOne(k, 1, false, false);
        // Derived backing: both paths derive it themselves from an
        // empty table, exactly as estimateIpc documents.
        TilePerfSummary summary = precomputeTilePerf(mdfg, {}, tile);
        for (size_t p = 0; p < points.size(); ++p) {
            PerfBreakdown ref =
                estimateIpc({ &mdfg, {} }, tile, points[p]);
            PerfBreakdown split = combineSystemPerf(summary, points[p]);
            expectSameBreakdown(
                ref, split, k.name + " sys" + std::to_string(p));
        }
        ++workloads;
    }
    EXPECT_EQ(workloads, 19);
}

TEST(PerfSplit, MatchesReferenceWithExplicitBacking)
{
    // Scheduled backing (the DSE path): force every memory stream to
    // DMA so the L2/DRAM terms dominate, and compare again.
    adg::Adg tile = splitTestTile();
    std::vector<adg::SystemParams> points = systemPoints();
    for (const auto &k : wl::dspSuite()) {
        dfg::Mdfg mdfg = compiler::compileOne(k, 1, false, false);
        BackingVec backing(static_cast<size_t>(mdfg.numNodes()),
                           Backing::Dma);
        TilePerfSummary summary =
            precomputeTilePerf(mdfg, backing, tile);
        for (size_t p = 0; p < points.size(); ++p) {
            PerfBreakdown ref =
                estimateIpc({ &mdfg, backing }, tile, points[p]);
            PerfBreakdown split = combineSystemPerf(summary, points[p]);
            expectSameBreakdown(
                ref, split,
                k.name + " dma sys" + std::to_string(p));
        }
    }
}

TEST(PerfSplit, MatchesReferenceWithCustomPerfConfig)
{
    // Non-default technology constants must flow through both paths
    // identically (narrow DRAM turns memory-bound kernels over).
    adg::Adg tile = splitTestTile();
    PerfConfig narrow;
    narrow.dramChannelBandwidthBytes = 48.0;
    narrow.l2BankBandwidthBytes = 16.0;
    adg::SystemParams sys;
    for (const auto &k : wl::dspSuite()) {
        dfg::Mdfg mdfg = compiler::compileOne(k, 1, false, false);
        TilePerfSummary summary = precomputeTilePerf(mdfg, {}, tile);
        PerfBreakdown ref = estimateIpc({ &mdfg, {} }, tile, sys, narrow);
        PerfBreakdown split = combineSystemPerf(summary, sys, narrow);
        expectSameBreakdown(ref, split, k.name + " narrow");
    }
}

} // namespace
} // namespace overgen::model
