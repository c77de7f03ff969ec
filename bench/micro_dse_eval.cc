/**
 * @file
 * DSE candidate-evaluation throughput microbenchmark: runs the full
 * annealer on the DSP suite with the default system grids and reports
 * candidate evaluations per second (best, median and interquartile
 * spread over the repetitions) plus the system-grid pruning count.
 * Writes BENCH_dse_eval.json next to the binary.
 *
 * Methodology: the resource model is trained before any timer starts
 * (training is a one-time cost, not part of candidate evaluation);
 * the bench runs several repetitions of an identical seeded
 * exploration. A 30 ms exploration is easily perturbed by the OS, so
 * the best repetition is the least-disturbed measure of the code and
 * the quartiles say how far to trust it. The bench asserts that every
 * repetition reaches the same objective: the factored perf model
 * changes wall-clock, never the trajectory (DESIGN.md "Model split
 * and grid pruning").
 */

#include <chrono>
#include <cstdio>

#include "common.h"

#include "common/json.h"
#include "common/stats.h"
#include "model/resource_model.h"

using namespace overgen;

int
main(int argc, char **argv)
{
    bench::Harness harness(argc, argv);
    bench::banner("micro_dse_eval",
                  "DSE candidate-evaluation throughput (DSP suite, "
                  "default grids)");

    // Train outside the timed region: candidate evaluation never
    // trains, it only prices.
    (void)model::FpgaResourceModel::defaultModel();

    const int iterations = bench::benchIterations(40);
    const int reps = 7;
    const std::vector<wl::KernelSpec> domain = wl::dspSuite();
    std::vector<double> evals_per_sec;
    dse::DseResult first;
    for (int rep = 0; rep < reps; ++rep) {
        dse::DseOptions options =
            harness.dseOptions(iterations, 11, "micro_dse_eval");
        auto t0 = std::chrono::steady_clock::now();
        dse::DseResult result = dse::exploreOverlay(domain, options);
        double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();
        evals_per_sec.push_back(result.evaluated / seconds);
        if (rep == 0)
            first = std::move(result);
        else
            OG_ASSERT(result.objective == first.objective,
                      "trajectory drifted between repetitions");
    }
    const double best = percentile(evals_per_sec, 100.0);
    const double median = percentile(evals_per_sec, 50.0);
    const double q1 = percentile(evals_per_sec, 25.0);
    const double q3 = percentile(evals_per_sec, 75.0);

    std::printf("\nconfig: seed=11 iterations=%d threads=%d reps=%d\n",
                iterations, harness.threads(), reps);
    std::printf("%15s %15s %15s %12s\n", "best evals/s",
                "median evals/s", "IQR evals/s", "objective");
    std::printf("%15.1f %15.1f %15.1f %12.6f\n", best, median, q3 - q1,
                first.objective);
    std::printf("system grid: %llu points pruned by monotone "
                "resource bounds\n",
                static_cast<unsigned long long>(first.gridPruned));

    Json report = Json::makeObject();
    report.set("bench", Json("micro_dse_eval"));
    report.set("suite", Json("dsp"));
    report.set("seed", Json(11));
    report.set("iterations", Json(iterations));
    report.set("threads", Json(harness.threads()));
    report.set("reps", Json(reps));
    report.set("best_evals_per_sec", Json(best));
    report.set("median_evals_per_sec", Json(median));
    report.set("q1_evals_per_sec", Json(q1));
    report.set("q3_evals_per_sec", Json(q3));
    report.set("objective", Json(first.objective));
    report.set("evaluated", Json(first.evaluated));
    report.set("grid_pruned", Json(first.gridPruned));
    std::string text = report.dump(2);
    const char *path = "BENCH_dse_eval.json";
    std::FILE *f = std::fopen(path, "w");
    OG_ASSERT(f != nullptr, "cannot open '", path, "'");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("\n[bench] report written to %s\n", path);

    harness.finish();
    return 0;
}
