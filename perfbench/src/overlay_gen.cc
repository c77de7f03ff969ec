/**
 * @file
 * overlay-gen: one seeded DSE (exploreOverlay) per domain suite — DSP,
 * MachSuite, Vision — then the benchmark itself simulates every final
 * mapping on the generated overlay and checks it against the
 * interpreter. Training the MLP resource model is the set-up; a
 * suite's anneal and validation make up one timed operation.
 */

#include <bit>

#include "common/hex.h"
#include "common/logging.h"
#include "common/stats.h"
#include "dse/explorer.h"
#include "kernels.h"
#include "model/resource_model.h"
#include "workloads.h"
#include "workloads/suites.h"

namespace perfbench {

namespace {

namespace dse = overgen::dse;
namespace model = overgen::model;

/**
 * DSE seed of each suite's anneal. Fixed, so the workload is
 * seed-free. Each seed anneals to a different design, and the host
 * cost follows the design: on one 4-core Xeon host and one build,
 * --seed-driven DSE seeds 1-3 gave anneal plus validation of 6.4 to
 * 9.8 s, and even a best-of-four multi-start gave final validation of
 * 2.6 to 4.1 s. Such a metric measures the seed, not the code.
 */
constexpr uint64_t kDseSeeds[] = { 1, 2, 3 };

/** Anneal iterations per suite, sized so the anneal, not the final
 * validation, is the larger share of a suite's time. */
constexpr int kIterations = 600;

/** Trainings timed for setup_s. The first builds the shared default
 * model the workload uses; the second repeats the same training
 * (FpgaResourceModel::train with the default configuration). One
 * takes about 9 s, so two keep the run within its time budget. */
constexpr int kTrainings = 2;

} // namespace

TrainedModel
trainModel(const Args &args, Tracer &tracer)
{
    TrainedModel trained;
    tracer.enabled = args.trace;
    std::vector<double> seconds;
    seconds.push_back(tracer.time("defaultModel", [&] {
        trained.model = &model::FpgaResourceModel::defaultModel();
    }));
    for (int i = 1; i < kTrainings; ++i)
        seconds.push_back(tracer.time("train", [] {
            model::FpgaResourceModel::train();
        }));
    tracer.enabled = false;
    trained.seconds = overgen::percentile(seconds, 50.0);
    return trained;
}

void
reportModelLayers(const TrainedModel &trained, Report &report)
{
    const model::FpgaResourceModel &m = *trained.model;
    report.layer("model.train_s", trained.seconds, "s");
    report.layer("model.mlp_val_error",
                 std::max({ m.peError(), m.switchError(), m.inPortError(),
                            m.outPortError() }),
                 "ratio");
}

void
runOverlayGen(const Args &args, Tracer &tracer, Report &report)
{
    TrainedModel trained = trainModel(args, tracer);

    const std::vector<std::vector<wl::KernelSpec>> suites = {
        wl::dspSuite(), wl::machSuite(), wl::visionSuite()
    };
    tracer.enabled = args.trace;
    Reference reference;
    double interpret = reference.build(wl::allWorkloads(), tracer);
    tracer.enabled = false;

    Passes passes = runPasses(args, tracer, report, [&] {
        PassResult pass;
        SimTotals totals;
        double anneal = 0.0;
        uint64_t evaluated = 0, accepted = 0, discarded = 0, abandoned = 0;
        uint64_t pruned = 0, hits = 0, lookups = 0;
        std::vector<double> modelOverSim, objective;
        overgen::Json objectives = overgen::Json::makeArray();
        for (size_t s = 0; s < suites.size(); ++s) {
            const std::vector<wl::KernelSpec> &kernels = suites[s];
            dse::DseOptions options;
            options.seed = kDseSeeds[s];
            options.iterations = kIterations;
            options.threads = 1;
            dse::DseResult result;
            double seconds = tracer.time("exploreOverlay", [&] {
                result = dse::exploreOverlay(kernels, options, trained.model);
            });
            anneal += seconds;
            pass.calls["exploreOverlay"].push_back(seconds);
            evaluated += static_cast<uint64_t>(result.evaluated);
            accepted += static_cast<uint64_t>(result.accepted);
            discarded += static_cast<uint64_t>(result.discarded);
            abandoned += static_cast<uint64_t>(result.abandoned);
            pruned += result.gridPruned;
            hits += result.cacheHits;
            lookups += result.cacheHits + result.cacheMisses;
            objectives.push(overgen::Json(
                overgen::hexU64(std::bit_cast<uint64_t>(result.objective))));
            if (result.mappings.size() != kernels.size()) {
                OG_WARN("suite ", s, ": ", result.mappings.size(), "/",
                        kernels.size(), " kernels mapped");
                pass.attempted += kernels.size();
                pass.failed += kernels.size();
                pass.calls["suite"].push_back(seconds);
                continue;
            }
            objective.push_back(result.objective);
            // The suite's operation is its anneal plus the validation
            // simulations, which simulateChecked adds to hostSeconds.
            double before = pass.hostSeconds;
            for (size_t k = 0; k < kernels.size(); ++k) {
                sim::SimResult r = simulateChecked(
                    kernels[k], result.mdfgs[k], result.schedules[k],
                    result.design, {}, reference, tracer, totals, pass);
                if (r.completed && r.ipc > 0.0)
                    modelOverSim.push_back(result.mappings[k].estimatedIpc /
                                           r.ipc);
            }
            pass.calls["suite"].push_back(seconds + pass.hostSeconds -
                                          before);
        }
        pass.hostSeconds += anneal;
        totals.into(pass);
        auto u = [](uint64_t v) { return static_cast<double>(v); };
        pass.values["dse.evaluated"] = u(evaluated);
        pass.values["dse.accepted"] = u(accepted);
        pass.values["dse.discarded"] = u(discarded);
        pass.values["dse.abandoned"] = u(abandoned);
        pass.values["dse.grid_pruned"] = u(pruned);
        pass.values["dse.eval_cache_hit_ratio"] =
            lookups > 0 ? u(hits) / u(lookups) : 0.0;
        // Empty only when every suite failed, which the run reports.
        auto geomean = [](const std::vector<double> &values) {
            return values.empty() ? 0.0 : overgen::geometricMean(values);
        };
        pass.values["dse.objective"] = geomean(objective);
        pass.values["dse.model_over_sim_ipc"] = geomean(modelOverSim);
        pass.exact.set("evaluated", overgen::Json(evaluated));
        pass.exact.set("accepted", overgen::Json(accepted));
        pass.exact.set("objectives", objectives);
        return pass;
    });

    report.e2e("setup_s", trained.seconds, "s");
    report.e2e("pass_s", passes.callSeconds("suite"), "s");
    if (!args.trace)
        return;
    report.layer("dse.evals_per_s",
                 passes.medianOf("dse.evaluated") /
                     passes.callSeconds("exploreOverlay"),
                 "1/s");
    reportModelLayers(trained, report);
    report.layer("dse.anneal_s", passes.selfMedian(tracer, "exploreOverlay"),
                 "s");
    report.layer("dse.validate_s", passes.selfMedian(tracer, "simulate"),
                 "s");
    for (const char *name :
         { "dse.evaluated", "dse.accepted", "dse.discarded",
           "dse.abandoned", "dse.grid_pruned" })
        report.layer(name, passes.medianOf(name), "count");
    report.layer("dse.eval_cache_hit_ratio",
                 passes.medianOf("dse.eval_cache_hit_ratio"), "ratio");
    report.layer("dse.objective", passes.medianOf("dse.objective"), "ipc");
    report.layer("dse.model_over_sim_ipc",
                 passes.medianOf("dse.model_over_sim_ipc"), "ratio");
    reportSimLayers(passes, tracer, report);
    report.layer("wl.interpret_s", interpret, "s");
    reportTraceOverhead(passes, report);
}

} // namespace perfbench
