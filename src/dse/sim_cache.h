#ifndef OVERGEN_DSE_SIM_CACHE_H
#define OVERGEN_DSE_SIM_CACHE_H

/**
 * @file
 * Warm-started incremental cycle-simulation for DSE validation.
 *
 * The explorer's final validation (DseOptions::validateFinal) is the
 * only place the DSE pays for cycle simulation, and incremental
 * exploration (Fig. 18: workloads added one at a time, the domain
 * re-explored) re-validates many (kernel, design) pairs it has seen
 * before — either identically, or truncated at a cheaper probe
 * horizon. This cache memoizes those simulations by their full input
 * identity and exploits the sim layer's snapshot/restore contract
 * (see sim/snapshot.h) in two ways:
 *
 *  - terminal reuse: a run that ended for good (completed, or aborted
 *    by the deadlock watchdog) is replayed from the stored SimResult;
 *  - truncation resume: a run that ran out of cycle budget left its
 *    last engine checkpoint here; a later request with a larger
 *    budget resumes from that checkpoint and simulates only the
 *    unseen suffix. sim::resumeFrom is bit-identical to the
 *    uninterrupted run, and sim::configDigest excludes maxCycles
 *    precisely so a probe checkpoint stays valid under a larger
 *    budget.
 *
 * Determinism contract: every cached value was produced by the
 * computation a miss would run, so warmSimulate returns bit-identical
 * SimResults with the cache hot, cold, or disabled — only wall-clock
 * changes.
 *
 * Thread safety: one mutex guards the table; concurrent misses of
 * the same key both simulate and both store identical values.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "sim/simulate.h"

namespace overgen::dse {

/** One memoized simulation (see file comment). */
struct WarmSimEntry
{
    /** The run ended for good: `result` is the final answer for any
     * cycle budget >= the one it ran under. */
    bool terminal = false;
    sim::SimResult result;
    /** Budget the truncated run was given (terminal == false). */
    uint64_t probeCycles = 0;
    /** Encoded last engine checkpoint of the truncated run (may be
     * empty when the run finished before its first checkpoint). */
    std::vector<uint8_t> checkpoint;
    /** Cycle the checkpoint was taken at (the prefix a resume skips). */
    uint64_t checkpointCycle = 0;
};

/** How warmSimulate satisfied a request. */
enum class WarmSimOutcome
{
    Miss,         //!< cold simulate()
    TerminalHit,  //!< cached final result returned outright
    Resumed,      //!< resumed from a truncation checkpoint
};

/** Per-call outcome detail (optional out-param of warmSimulate). */
struct WarmSimReport
{
    WarmSimOutcome how = WarmSimOutcome::Miss;
    /** Prefix cycles a resume did not re-simulate (0 otherwise). */
    uint64_t cyclesSkipped = 0;
};

/** Running totals, readable while the cache is in use. */
struct WarmSimStats
{
    uint64_t misses = 0;
    uint64_t terminalHits = 0;
    uint64_t resumes = 0;
    /** Cycles the resumed runs did NOT re-simulate (sum of resume
     * checkpoint cycles) — the incremental-evaluation win. */
    uint64_t cyclesSkipped = 0;
};

/** See file comment. */
class WarmSimCache
{
  public:
    std::optional<WarmSimEntry> find(uint64_t key) const;
    void store(uint64_t key, WarmSimEntry entry);
    void recordOutcome(WarmSimOutcome how, uint64_t cycles_skipped);
    WarmSimStats stats() const;

  private:
    mutable std::mutex mutex;
    std::map<uint64_t, WarmSimEntry> entries;
    WarmSimStats counts;
};

/**
 * Identity of one kernel cycle-simulation: FNV over the kernel name,
 * the chosen variant, the tile ADG's double-salted structural
 * fingerprint, the system parameters, the schedule (placements,
 * routes, delay FIFOs, imbalance), and sim::configDigest. Two runs
 * with equal digests simulate the same trajectory; maxCycles is
 * deliberately absent (see sim::configDigest).
 */
uint64_t simKeyDigest(const wl::KernelSpec &spec,
                      const dfg::Mdfg &mdfg,
                      const sched::Schedule &schedule,
                      const adg::SysAdg &design,
                      const sim::SimConfig &config);

/**
 * Simulate with memoization: terminal hits return the cached result,
 * truncation hits resume from the stored checkpoint, misses run cold
 * — every path bit-identical to sim::simulate with the same inputs.
 * Misses (and still-truncated resumes) checkpoint every
 * @p checkpoint_every cycles (0 derives maxCycles/16) and store their
 * outcome for the next caller. @p cache may be null (plain cold
 * simulation); @p report, when non-null, says which path was taken.
 */
sim::SimResult warmSimulate(WarmSimCache *cache,
                            const wl::KernelSpec &spec,
                            const dfg::Mdfg &mdfg,
                            const sched::Schedule &schedule,
                            const adg::SysAdg &design,
                            const sim::SimConfig &config,
                            uint64_t checkpoint_every = 0,
                            WarmSimReport *report = nullptr);

} // namespace overgen::dse

#endif // OVERGEN_DSE_SIM_CACHE_H
