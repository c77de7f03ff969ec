#ifndef OVERGEN_DSE_EXPLORER_H
#define OVERGEN_DSE_EXPLORER_H

/**
 * @file
 * The unified system + accelerator design space explorer (paper §V):
 * an outer simulated-annealing loop mutates the per-tile ADG (with
 * schedule-preserving transformations) and repairs the pre-generated
 * mDFG variants' schedules; a nested exhaustive system DSE picks tile
 * count, L2 banking/capacity and NoC width under the FPGA resource
 * budget; the objective is the weighted geomean of estimated IPC,
 * with estimated resources-per-accelerator as a pruning secondary.
 */

#include <vector>

#include "model/perf.h"
#include "model/resource_model.h"
#include "sched/scheduler.h"
#include "workloads/kernelspec.h"

namespace overgen::telemetry {
class Sink;
} // namespace overgen::telemetry

namespace overgen::dse {

class WarmSimCache;

/** How the explorer scores a candidate's per-kernel IPC estimates. */
enum class DseObjective : int
{
    /** Whole-run average IPC as estimated by the perf model — the
     * historical objective. */
    Scalar = 0,
    /**
     * Phase-aware: each kernel's estimated IPC is weighted by its
     * steady fraction S/(S+R), where S is the model-estimated steady
     * cycles (iterations / work rate) and R the model-estimated ramp
     * (model::estimateRampCycles). Long kernels (S >> R) score as
     * under Scalar; short kernels are penalized in proportion to the
     * ramp they spend not at steady state — the design that wins
     * steady-state can lose here (see DESIGN.md "Phase-aware
     * analysis").
     */
    Phase,
};

/** @return "scalar" / "phase". */
const char *dseObjectiveName(DseObjective objective);

/** Explorer options. */
struct DseOptions
{
    uint64_t seed = 1;
    /** Spatial DSE iterations (the paper runs hours; benches minutes). */
    int iterations = 60;
    double initialTemperature = 0.6;
    /**
     * Worker threads for speculative candidate evaluation: 0 selects
     * the hardware concurrency, 1 is the legacy serial path (no
     * threads spawned). The explored trajectory is bit-identical for
     * every value — per-candidate Rng streams are split off the
     * master seed before evaluation and accept decisions are applied
     * in fixed candidate order, so threads only change wall-clock
     * (see DESIGN.md "Determinism under parallelism").
     */
    int threads = 1;
    /**
     * Speculation width: candidates mutated from the current design
     * and evaluated per annealing round. Part of the seeded
     * algorithm (changing it changes the trajectory; changing
     * `threads` does not). Candidates after an accepted one in a
     * round are discarded unexamined — their mutations were drawn
     * against a stale base — so wider speculation trades redundant
     * evaluations for parallelism.
     */
    int speculation = 8;
    /** Resource budget fraction of the device. */
    double budgetFraction = 0.97;
    /** Enable schedule-preserving transformations (Fig. 20 ablation). */
    bool schedulePreserving = true;
    /** Apply OverGen source tuning when compiling variants. */
    bool applyTuning = false;
    /** Nested system-DSE grids (paper §III-B). Each axis is iterated
     * in ascending order; resources are monotone per axis, so the
     * explorer prunes whole over-budget subtrees instead of visiting
     * every point (see DESIGN.md "Model split and grid pruning"). */
    std::vector<int> tileCountGrid{ 1, 2, 3, 4, 6, 8, 10, 13, 16 };
    std::vector<int> l2BankGrid{ 4, 8, 16 };
    std::vector<int> nocBytesGrid{ 32, 64 };
    std::vector<int> l2CapacityGrid{ 256, 512, 1024 };
    std::vector<int> dramChannelGrid{ 1 };
    model::PerfConfig perf;
    /** Candidate scoring mode (`--objective` on the bench harnesses).
     * Phase features are computed and logged under both modes; the
     * mode only decides whether they weight the score. */
    DseObjective objective = DseObjective::Scalar;
    /** Ramp cost constants for DseObjective::Phase. */
    model::PhaseWeights phase;
    /**
     * Phase mode + validateFinal: a kernel whose modeled steady
     * fraction S/(S+R) on the final design falls below this threshold
     * is ramp-dominated — the analytic model's steady-state lens is
     * unreliable for it, so the explorer refines its final mapping by
     * *measured* whole-run cycles (simulating each schedulable
     * variant, adopting a strictly faster one; ties keep the
     * annealer's mapping). Short kernels simulate in microseconds, so
     * the pass is cheap; 0 disables it. The default trusts the model
     * only once the modeled steady span is at least three times the
     * ramp (long kernels sit near 1.0 and are always exempt).
     */
    double phaseShortSteadyFraction = 0.75;
    /**
     * Cycle-simulate every kernel on the final design after the
     * anneal (sim::runBatch over `threads` workers) and record the
     * measured cycles/IPC next to the model estimate in each
     * KernelMapping. Off by default: the anneal itself never
     * simulates, so this only adds one batched sweep at the end.
     */
    bool validateFinal = false;
    /**
     * Warm-started incremental validation (used only with
     * validateFinal): final-design simulations are memoized here by
     * their full input identity (see dse/sim_cache.h). Across
     * explorations of a growing domain, a kernel whose mapping is
     * unchanged reuses its terminal result outright, and one whose
     * earlier validation was truncated at a smaller cycle budget
     * resumes from its last checkpoint, simulating only the unseen
     * suffix. Bit-identical to cold validation in every case. Null
     * keeps the plain runBatch sweep. Shareable across concurrent
     * explorations (thread-safe).
     */
    WarmSimCache *simCache = nullptr;
    /** Checkpoint cadence for cache-filling validation runs, in
     * cycles (0 derives maxCycles/16; see dse/sim_cache.h). */
    uint64_t simCacheCheckpointEvery = 0;

    /**
     * Telemetry sink: when live, the explorer appends one JSONL
     * record per iteration (iteration, temperature, objective,
     * accept/reject, mutation kinds, resource slack, seconds) and
     * counts mutations/acceptances in the registry. Null disables
     * all DSE telemetry.
     */
    telemetry::Sink *sink = nullptr;
    /** Tag stamped into each JSONL record ("run"), distinguishing
     * multiple explorations sharing one sink. */
    std::string telemetryLabel;
    /**
     * Emit one `"type":"heartbeat"` progress record on the sink every
     * N annealing rounds (candidates/sec, best-so-far objective;
     * 0 disables). Heartbeats ride the same
     * JSONL stream as iteration records — consumers filter on the
     * "type" key — and are deterministic in count and content except
     * for the wall-clock rate fields.
     */
    int heartbeatEvery = 4;
};

/** One point of the DSE convergence trace (Fig. 20). */
struct ConvergencePoint
{
    double seconds = 0.0;
    int iteration = 0;
    double estimatedIpc = 0.0;
};

/** Per-kernel outcome on the final design. */
struct KernelMapping
{
    std::string kernel;
    int variantIndex = -1;          //!< into the kernel's variant list
    std::string variantName;
    double estimatedIpc = 0.0;
    std::string bottleneck;
    /** Model-estimated ramp cycles on the final design (phase
     * features; computed under both objectives). */
    double estimatedRampCycles = 0.0;
    /** Model-estimated steady fraction S/(S+R) — the weight Phase
     * mode applies to this kernel's IPC. */
    double estimatedSteadyFraction = 1.0;
    /** @name Filled only with DseOptions::validateFinal. @{ */
    bool simulated = false;      //!< a cycle simulation ran
    bool simCompleted = false;   //!< it finished within maxCycles
    uint64_t simulatedCycles = 0;
    double simulatedIpc = 0.0;
    /// @}
};

/** Explorer result. */
struct DseResult
{
    adg::SysAdg design;
    double objective = 0.0;  //!< weighted geomean estimated IPC
    model::Resources resources;
    double utilization = 0.0;
    std::vector<KernelMapping> mappings;
    /** Final schedules + chosen variants, index-aligned to mappings. */
    std::vector<sched::Schedule> schedules;
    std::vector<dfg::Mdfg> mdfgs;
    std::vector<ConvergencePoint> convergence;
    int iterationsRun = 0;
    int accepted = 0;
    int abandoned = 0;  //!< candidates with an unschedulable kernel
    /** Candidate evaluations run, including speculative ones
     * discarded after an in-round acceptance (>= iterationsRun). */
    int evaluated = 0;
    /** Speculative evaluations discarded unexamined. */
    int discarded = 0;
    /**
     * Always 0: the explorer has no evaluation cache. The two fields
     * stay only because the benchmark driver
     * (perfbench/src/overlay_gen.cc) still reads them for its DSE
     * cache hit-ratio metric, which therefore reads 0.
     */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    /** System-grid points skipped by monotone budget pruning (a
     * deterministic function of the trajectory). */
    uint64_t gridPruned = 0;
    /** @name Warm-validation traffic for THIS call (zero without
     * DseOptions::simCache; observability only) */
    /// @{
    uint64_t simTerminalHits = 0;  //!< validations served from cache
    uint64_t simResumes = 0;       //!< validations resumed mid-run
    uint64_t simMisses = 0;        //!< validations simulated cold
    /** Cycles the resumed validations did not re-simulate. */
    uint64_t simCyclesSkipped = 0;
    /// @}
    double elapsedSeconds = 0.0;
};

/**
 * Run the unified DSE for @p kernels (the "domain"). The resource
 * model prices candidates; the returned design is the best accepted
 * sysADG.
 */
DseResult exploreOverlay(const std::vector<wl::KernelSpec> &kernels,
                         const DseOptions &options = {},
                         const model::FpgaResourceModel *resource_model =
                             nullptr);

/** Build the seed ADG the DSE starts from (a capability-complete mesh
 * over the kernels' needs). */
adg::Adg seedTile(const std::vector<wl::KernelSpec> &kernels);

} // namespace overgen::dse

#endif // OVERGEN_DSE_EXPLORER_H
