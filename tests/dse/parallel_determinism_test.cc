#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.h"
#include "dse/explorer.h"
#include "model/resource_model.h"
#include "telemetry/sink.h"
#include "workloads/suites.h"

namespace overgen {
namespace {

/**
 * The determinism contract (DESIGN.md "Determinism under
 * parallelism"): `DseOptions::threads` changes wall-clock only. Every
 * thread count must walk the exact same annealing trajectory —
 * per-candidate Rng streams are split off the master seed before any
 * parallel work, and accept decisions are applied in fixed candidate
 * order — so the best design, its objective, and the telemetry record
 * stream are bit-identical across thread counts.
 */

/** Fast-training resource model shared across this file. */
const model::FpgaResourceModel &
testModel()
{
    static model::FpgaResourceModel m = [] {
        model::ResourceModelConfig config;
        config.peSamples = 600;
        config.switchSamples = 300;
        config.inPortSamples = 200;
        config.outPortSamples = 200;
        config.train.epochs = 40;
        return model::FpgaResourceModel::train(config);
    }();
    return m;
}

struct ExploreRun
{
    dse::DseResult result;
    /** The per-iteration JSONL stream with wall-clock fields zeroed
     * — everything else in a record derives from the trajectory. */
    std::vector<std::string> records;
};

std::vector<std::string>
canonicalRecords(const std::vector<std::string> &lines)
{
    std::vector<std::string> out;
    for (const std::string &line : lines) {
        Json record = Json::parse(line);
        // The explorer has no evaluation cache, so no cache-traffic
        // field (any key starting with "cache") may reappear.
        for (const auto &[key, value] : record.asObject())
            EXPECT_NE(key.rfind("cache", 0), 0u) << line;
        // Only the wall-clock fields sit outside the contract: the
        // timestamp and the heartbeat rate.
        record.set("seconds", Json(0.0));
        record.asObject().erase("candidates_per_sec");
        out.push_back(record.dump());
    }
    return out;
}

ExploreRun
explore(int threads, uint64_t seed,
        dse::DseObjective objective = dse::DseObjective::Scalar,
        bool validate_final = false)
{
    std::vector<wl::KernelSpec> domain = { wl::makeFir(128, 16),
                                           wl::makeAccumulate(16) };
    telemetry::Sink sink;
    dse::DseOptions options;
    options.seed = seed;
    options.iterations = 10;
    options.threads = threads;
    options.tileCountGrid = { 1, 2, 4 };
    options.l2BankGrid = { 4, 8 };
    options.nocBytesGrid = { 64 };
    options.l2CapacityGrid = { 512 };
    options.sink = &sink;
    options.telemetryLabel = "determinism";
    options.objective = objective;
    options.validateFinal = validate_final;
    ExploreRun run;
    run.result = dse::exploreOverlay(domain, options, &testModel());
    run.records = canonicalRecords(sink.dseLines());
    return run;
}

void
expectIdentical(const ExploreRun &a, const ExploreRun &b, const std::string &label)
{
    // Bit-identical design: the full ADG + system-parameter JSON
    // serialization must match byte for byte.
    EXPECT_EQ(a.result.design.toJson().dump(),
              b.result.design.toJson().dump())
        << label;
    // Exact double equality is intentional — the trajectories must be
    // the same computation, not merely close.
    EXPECT_EQ(a.result.objective, b.result.objective) << label;
    EXPECT_EQ(a.result.iterationsRun, b.result.iterationsRun) << label;
    EXPECT_EQ(a.result.accepted, b.result.accepted) << label;
    EXPECT_EQ(a.result.abandoned, b.result.abandoned) << label;
    EXPECT_EQ(a.result.evaluated, b.result.evaluated) << label;
    EXPECT_EQ(a.result.discarded, b.result.discarded) << label;
    // One JSONL record per examined iteration, identical except for
    // wall-clock timestamps.
    EXPECT_EQ(a.records, b.records) << label;

    // Same per-kernel mappings on the final design.
    ASSERT_EQ(a.result.mappings.size(), b.result.mappings.size());
    for (size_t i = 0; i < a.result.mappings.size(); ++i) {
        EXPECT_EQ(a.result.mappings[i].variantIndex,
                  b.result.mappings[i].variantIndex)
            << label;
        EXPECT_EQ(a.result.mappings[i].estimatedIpc,
                  b.result.mappings[i].estimatedIpc)
            << label;
    }

    // Same convergence history (timestamps aside — those are
    // wall-clock, explicitly outside the contract).
    ASSERT_EQ(a.result.convergence.size(), b.result.convergence.size())
        << label;
    for (size_t i = 0; i < a.result.convergence.size(); ++i) {
        EXPECT_EQ(a.result.convergence[i].iteration,
                  b.result.convergence[i].iteration)
            << label;
        EXPECT_EQ(a.result.convergence[i].estimatedIpc,
                  b.result.convergence[i].estimatedIpc)
            << label;
    }
}

TEST(ParallelDeterminism, ThreadCountDoesNotChangeTrajectory)
{
    ExploreRun serial = explore(1, 42);
    ExploreRun two = explore(2, 42);
    ExploreRun eight = explore(8, 42);
    expectIdentical(serial, two, "threads 1 vs 2");
    expectIdentical(serial, eight, "threads 1 vs 8");
}

TEST(ParallelDeterminism, RerunWithSameSeedIsReproducible)
{
    ExploreRun first = explore(4, 7);
    ExploreRun second = explore(4, 7);
    expectIdentical(first, second, "same seed, same threads");
}

TEST(ParallelDeterminism, DifferentSeedsDiverge)
{
    // Sanity check that the comparisons above have teeth: different
    // seeds draw different mutations, so the per-iteration record
    // streams must differ even if both searches end at similar
    // designs.
    ExploreRun a = explore(2, 1);
    ExploreRun b = explore(2, 99);
    EXPECT_NE(a.records, b.records);
}

TEST(ParallelDeterminism, PhaseObjectiveTrajectoryIsThreadIndependent)
{
    // The phase-aware objective weights candidate IPC by modeled
    // steady fractions and (with validateFinal) runs the measured
    // refinement pass over ramp-dominated mappings; both are part of
    // the same determinism contract — the trajectory, the final
    // mappings, and the refined simulated cycle counts must be
    // bit-identical across thread counts.
    auto phase_run = [](int threads) {
        return explore(threads, 42, dse::DseObjective::Phase,
                       /*validate_final=*/true);
    };
    ExploreRun serial = phase_run(1);
    ExploreRun four = phase_run(4);
    expectIdentical(serial, four, "phase objective threads 1 vs 4");
    ASSERT_EQ(serial.result.mappings.size(),
              four.result.mappings.size());
    for (size_t i = 0; i < serial.result.mappings.size(); ++i) {
        EXPECT_EQ(serial.result.mappings[i].simulatedCycles,
                  four.result.mappings[i].simulatedCycles)
            << i;
        EXPECT_EQ(serial.result.mappings[i].estimatedSteadyFraction,
                  four.result.mappings[i].estimatedSteadyFraction)
            << i;
        EXPECT_EQ(serial.result.mappings[i].estimatedRampCycles,
                  four.result.mappings[i].estimatedRampCycles)
            << i;
    }
}

TEST(ParallelDeterminism, EvaluationCountIsThreadIndependent)
{
    // The speculation width (not the thread count) fixes how many
    // candidates each round evaluates, so total work is identical at
    // any thread count — measured speedup is pure parallelism.
    ExploreRun serial = explore(1, 5);
    ExploreRun parallel = explore(8, 5);
    EXPECT_EQ(serial.result.evaluated, parallel.result.evaluated);
    EXPECT_EQ(serial.result.discarded, parallel.result.discarded);
    EXPECT_EQ(serial.result.evaluated,
              serial.result.iterationsRun + serial.result.discarded);
}

} // namespace
} // namespace overgen
