#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

/**
 * @file
 * The benchmark's workloads. Each fills @p report with its end-to-end
 * metrics (and, in trace mode, its per-layer metrics).
 */

#include "harness.h"
#include "model/resource_model.h"

namespace perfbench {

void runSimCompute(const Args &args, Tracer &tracer, Report &report);
void runOverlayGen(const Args &args, Tracer &tracer, Report &report);
void runServeZipf(const Args &args, Tracer &tracer, Report &report);

/** The trained MLP resource model and what training it cost. */
struct TrainedModel
{
    const overgen::model::FpgaResourceModel *model = nullptr;
    /** Median host seconds of the timed trainings. */
    double seconds = 0.0;
};

/** Train FpgaResourceModel::defaultModel(), then time the same
 * training once more (`defaultModel` and `train` spans when @p args
 * traces). */
TrainedModel trainModel(const Args &args, Tracer &tracer);

/** Per-layer model metrics: train time and worst MLP validation
 * error. */
void reportModelLayers(const TrainedModel &trained, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
