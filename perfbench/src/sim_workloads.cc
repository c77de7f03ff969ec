/**
 * @file
 * sim-compute: the paper-size suite kernels, compiled and scheduled
 * (set-up), then simulated one after another on the 4-tile general
 * overlay with the default memory system. The event horizon almost
 * never opens, so host time goes to per-cycle tile and fabric ticks.
 * Seed-free: the kernels, their data (wl::Memory::init's fixed seed)
 * and the overlay do not depend on --seed, so every run does identical
 * simulated work.
 */

#include <set>

#include "adg/builders.h"
#include "common/logging.h"
#include "compiler/compile.h"
#include "kernels.h"
#include "sched/scheduler.h"
#include "workloads.h"
#include "workloads/suites.h"

namespace perfbench {

namespace {

namespace adg = overgen::adg;
namespace compiler = overgen::compiler;
namespace sched = overgen::sched;

/** Kernels known not to map on the general tile. */
const std::set<std::string> kDeclaredUnmapped = { "stencil-2d" };

struct Prepared
{
    const wl::KernelSpec *spec = nullptr;
    overgen::dfg::Mdfg mdfg;
    sched::Schedule schedule;
};

struct SetupCosts
{
    double compile = 0.0;
    double firstFit = 0.0;
    uint64_t variants = 0;
    uint64_t relaxations = 0;
    uint64_t unmapped = 0;
    std::vector<std::string> unexpected;
    /** Host seconds of each kernel's whole set-up, in suite order. */
    std::vector<double> kernelSeconds;
};

adg::SysAdg
generalOverlay()
{
    adg::SysAdg design;
    design.adg = adg::buildGeneralOverlayTile();
    design.sys.numTiles = 4;
    design.sys.l2Banks = 4;
    design.sys.l2CapacityKiB = 512;
    design.sys.nocBytes = 32;
    return design;
}

/** Compile, first-fit schedule and initialize memory for every kernel
 * (timed per kernel for setup_s). */
std::vector<Prepared>
prepare(const std::vector<wl::KernelSpec> &specs,
        const adg::SysAdg &design, Tracer &tracer, SetupCosts &costs)
{
    compiler::CompileOptions copts;
    copts.applyTuning = true;
    std::vector<Prepared> out;
    for (const wl::KernelSpec &spec : specs) {
        Clock::time_point t0 = Clock::now();
        std::vector<overgen::dfg::Mdfg> variants;
        costs.compile += tracer.time("compileVariants", [&] {
            variants = compiler::compileVariants(spec, copts);
        });
        costs.variants += variants.size();
        std::optional<std::pair<sched::Schedule, int>> fit;
        costs.firstFit += tracer.time("scheduleFirstFit", [&] {
            sched::SpatialScheduler scheduler(design.adg);
            fit = scheduler.scheduleFirstFit(variants);
        });
        wl::Memory memory;
        tracer.time("Memory::init", [&] { memory.init(spec); });
        costs.kernelSeconds.push_back(secondsSince(t0));
        if (!fit) {
            ++costs.unmapped;
            if (kDeclaredUnmapped.count(spec.name) == 0)
                costs.unexpected.push_back(spec.name);
            continue;
        }
        costs.relaxations += static_cast<uint64_t>(fit->second);
        out.push_back({ &spec, std::move(variants[fit->second]),
                        std::move(fit->first) });
    }
    return out;
}

} // namespace

void
runSimCompute(const Args &args, Tracer &tracer, Report &report)
{
    adg::SysAdg design = generalOverlay();
    sim::SimConfig config;
    std::vector<wl::KernelSpec> specs = wl::allWorkloads();

    // Set-up times are medians over every repetition.
    std::vector<std::vector<double>> kernelSetup(specs.size());
    std::vector<double> compile, firstFit;
    SetupCosts costs;
    auto timedSetup = [&] {
        costs = SetupCosts{};
        std::vector<Prepared> prepared = prepare(specs, design, tracer, costs);
        for (size_t k = 0; k < specs.size(); ++k)
            kernelSetup[k].push_back(costs.kernelSeconds[k]);
        compile.push_back(costs.compile);
        firstFit.push_back(costs.firstFit);
        return prepared;
    };
    tracer.enabled = args.trace;
    std::vector<Prepared> jobs = timedSetup();
    for (const std::string &name : costs.unexpected) {
        OG_WARN("kernel ", name, " did not map");
        ++report.attempted;
        ++report.failed;
    }

    Reference reference;
    double interpret = reference.build(specs, tracer);
    tracer.enabled = false;

    // Set-up takes milliseconds and host speed changes within seconds,
    // so set-up is re-timed before every simulation, throughout the
    // run, and setup_s sums each kernel's median over all repetitions.
    Passes passes = runPasses(args, tracer, report, [&] {
        PassResult pass;
        SimTotals totals;
        for (const Prepared &job : jobs) {
            timedSetup();
            simulateChecked(*job.spec, job.mdfg, job.schedule, design,
                            config, reference, tracer, totals, pass);
        }
        totals.into(pass);
        return pass;
    });

    double setup = 0.0;
    for (const std::vector<double> &seconds : kernelSetup)
        setup += overgen::percentile(seconds, 50.0);
    report.e2e("setup_s", setup, "s");
    report.e2e("pass_s", passes.callSeconds("simulate"), "s");
    if (!args.trace)
        return;
    reportSimLayers(passes, tracer, report);
    report.layer("compiler.compile_ms",
                 1e3 * overgen::percentile(compile, 50.0), "ms");
    report.layer("compiler.variants", static_cast<double>(costs.variants),
                 "count");
    report.layer("sched.first_fit_ms",
                 1e3 * overgen::percentile(firstFit, 50.0), "ms");
    report.layer("sched.relaxations",
                 static_cast<double>(costs.relaxations), "count");
    report.layer("sched.unmapped", static_cast<double>(costs.unmapped),
                 "count");
    report.layer("wl.interpret_s", interpret, "s");
    reportTraceOverhead(passes, report);
}

} // namespace perfbench
