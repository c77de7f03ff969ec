#ifndef PERFBENCH_KERNELS_H
#define PERFBENCH_KERNELS_H

/**
 * @file
 * Simulation helpers shared by the workloads that simulate: the
 * interpreter reference every simulated kernel is checked against,
 * one checked simulate() call, and the per-pass accumulation of the
 * simulator's exact counters.
 */

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "sim/simulate.h"
#include "workloads/interpreter.h"

namespace perfbench {

namespace wl = overgen::wl;
namespace sim = overgen::sim;

/** Initial and expected (wl::interpret) arrays of each kernel. */
class Reference
{
  public:
    /** Build the reference for @p specs; the interpreter runs are
     * timed as `interpret` spans when @p tracer is enabled. @return
     * host seconds spent interpreting. */
    double build(const std::vector<wl::KernelSpec> &specs,
                 Tracer &tracer);

    const wl::Memory &initial(const std::string &kernel) const;
    const wl::Memory &expected(const std::string &kernel) const;

  private:
    std::map<std::string, wl::Memory> init;
    std::map<std::string, wl::Memory> want;
};

/** Bit-for-bit equality of every array of @p spec. */
bool sameArrays(const wl::KernelSpec &spec, const wl::Memory &got,
                const wl::Memory &want);

/** Simulator counters summed over the kernels of one pass. */
struct SimTotals
{
    std::vector<double> cycles;  //!< per completed kernel
    uint64_t totalCycles = 0;
    uint64_t ticked = 0;
    uint64_t skipped = 0;
    uint64_t drained = 0;
    uint64_t drainJumps = 0;
    uint64_t l2Hits = 0;
    uint64_t l2Misses = 0;
    uint64_t dramBytes = 0;
    uint64_t nocBytes = 0;
    uint64_t mshrStallCycles = 0;
    uint64_t peakOutstanding = 0;
    uint64_t fabricStallCycles = 0;
    uint64_t tileBusyCycles = 0;
    uint64_t tileDramFillCycles = 0;
    uint64_t tileLedgerCycles = 0;
    /** Outer-loop-dependent kernels whose arrays differ from the
     * reference on a multi-tile design (expected; not a failure). */
    uint64_t timingOnlyMismatches = 0;
    /** Per-kernel "name:cycles:ticked" records plus an output hash;
     * must repeat exactly across passes. */
    overgen::Json exact = overgen::Json::makeArray();

    /** Store the totals as per-pass values / exact counts. */
    void into(PassResult &pass) const;
};

/**
 * Simulate one mapped kernel from a fresh copy of its initial arrays
 * (every run starts with a cold L2: sim::simulate builds a new memory
 * system) and check the result against the reference. Counts one
 * attempt; an incomplete/deadlocked run is a failure, an array
 * mismatch is a failure and a mismatch, except for a kernel whose
 * outer loop carries a dependence run on several tiles, whose arrays
 * the simulator does not promise to reproduce (counted instead).
 */
sim::SimResult simulateChecked(const wl::KernelSpec &spec,
                     const overgen::dfg::Mdfg &mdfg,
                     const overgen::sched::Schedule &schedule,
                     const overgen::adg::SysAdg &design,
                     const sim::SimConfig &config,
                     const Reference &reference, Tracer &tracer,
                     SimTotals &totals, PassResult &pass);

/** Report the simulator's per-layer metrics from timed passes. */
void reportSimLayers(const Passes &passes, const Tracer &tracer,
                     Report &report);

} // namespace perfbench

#endif // PERFBENCH_KERNELS_H
