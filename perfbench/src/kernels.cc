#include "kernels.h"

#include <cstring>
#include <set>

#include "common/hex.h"
#include "common/logging.h"
#include "common/stats.h"

namespace perfbench {

namespace {

/** Kernels whose outer loop carries a dependence. Partitioning that
 * loop across tiles (the simulator's execution convention, paper
 * §VI-E) reorders their arithmetic, so on a multi-tile design they
 * are timing-only, as in the repository's own multi-tile tests. */
const std::set<std::string> kOuterLoopDependent = { "cholesky", "solver" };

} // namespace

double
Reference::build(const std::vector<wl::KernelSpec> &specs, Tracer &tracer)
{
    double seconds = 0.0;
    for (const wl::KernelSpec &spec : specs) {
        wl::Memory &start = init[spec.name];
        start.init(spec);
        wl::Memory &expect = want[spec.name];
        expect = start;
        seconds += tracer.time("interpret",
                               [&] { wl::interpret(spec, expect); });
    }
    return seconds;
}

const wl::Memory &
Reference::initial(const std::string &kernel) const
{
    auto it = init.find(kernel);
    OG_ASSERT(it != init.end(), "no reference for ", kernel);
    return it->second;
}

const wl::Memory &
Reference::expected(const std::string &kernel) const
{
    auto it = want.find(kernel);
    OG_ASSERT(it != want.end(), "no reference for ", kernel);
    return it->second;
}

bool
sameArrays(const wl::KernelSpec &spec, const wl::Memory &got,
           const wl::Memory &want)
{
    for (const auto &array : spec.arrays) {
        const std::vector<double> &a = got.array(array.name);
        const std::vector<double> &b = want.array(array.name);
        if (a.size() != b.size() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) !=
                0)
            return false;
    }
    return true;
}

sim::SimResult
simulateChecked(const wl::KernelSpec &spec,
                const overgen::dfg::Mdfg &mdfg,
                const overgen::sched::Schedule &schedule,
                const overgen::adg::SysAdg &design,
                const sim::SimConfig &config, const Reference &reference,
                Tracer &tracer, SimTotals &totals, PassResult &pass)
{
    wl::Memory memory = reference.initial(spec.name);
    sim::SimResult r;
    double seconds = tracer.time("simulate", [&] {
        r = sim::simulate(spec, mdfg, schedule, design, memory, config);
    });
    pass.hostSeconds += seconds;
    pass.calls["simulate"].push_back(seconds);
    ++pass.attempted;
    bool match = sameArrays(spec, memory, reference.expected(spec.name));
    if (!match && design.sys.numTiles > 1 &&
        kOuterLoopDependent.count(spec.name) > 0) {
        ++totals.timingOnlyMismatches;
        match = true;
    }
    if (!r.completed || r.deadlocked || !match) {
        ++pass.failed;
        if (!match)
            ++pass.mismatches;
        OG_WARN("kernel ", spec.name, ": completed=", r.completed,
                " deadlocked=", r.deadlocked, " arrays ",
                match ? "match" : "DIFFER");
    }
    if (r.completed && r.cycles > 0)
        totals.cycles.push_back(static_cast<double>(r.cycles));
    totals.totalCycles += r.cycles;
    totals.ticked += r.tickedCycles;
    totals.skipped += r.skippedCycles;
    totals.drained += r.drainedCycles;
    totals.drainJumps += r.drainJumps;
    totals.l2Hits += r.memory.l2Hits;
    totals.l2Misses += r.memory.l2Misses;
    totals.dramBytes += r.memory.dramBytesRead + r.memory.dramBytesWritten;
    totals.nocBytes += r.memory.nocBytes;
    totals.mshrStallCycles += r.memory.mshrStallCycles;
    totals.peakOutstanding =
        std::max(totals.peakOutstanding, r.memory.peakOutstandingTxns);
    using overgen::telemetry::CycleCategory;
    for (const sim::TileStats &tile : r.tiles) {
        totals.fabricStallCycles += tile.fabricStallCycles;
        totals.tileBusyCycles += tile.ledger[CycleCategory::Busy];
        totals.tileDramFillCycles += tile.ledger[CycleCategory::DramFill];
        totals.tileLedgerCycles += tile.ledger.total();
    }
    uint64_t hash = 1469598103934665603ull;
    for (const auto &array : spec.arrays) {
        const std::vector<double> &a = memory.array(array.name);
        hash = fnv1a(a.data(), a.size() * sizeof(double), hash);
    }
    totals.exact.push(overgen::Json(
        spec.name + ":" + std::to_string(r.cycles) + ":" +
        std::to_string(r.tickedCycles) + ":" + overgen::hexU64(hash)));
    return r;
}

void
SimTotals::into(PassResult &pass) const
{
    auto u = [](uint64_t v) { return static_cast<double>(v); };
    pass.values["sim.total_cycles"] = u(totalCycles);
    // Empty only when every simulation failed, which the run reports.
    pass.values["cycles_geomean"] =
        cycles.empty() ? 0.0 : overgen::geometricMean(cycles);
    pass.values["sim.ticked_cycles"] = u(ticked);
    pass.values["sim.skipped_cycles"] = u(skipped);
    pass.values["sim.skip_ratio"] =
        totalCycles > 0 ? u(skipped) / u(totalCycles) : 0.0;
    pass.values["sim.drained_cycles"] = u(drained);
    pass.values["sim.drain_jumps"] = u(drainJumps);
    pass.values["sim.l2_hit_ratio"] =
        l2Hits + l2Misses > 0 ? u(l2Hits) / u(l2Hits + l2Misses) : 0.0;
    pass.values["sim.dram_bytes"] = u(dramBytes);
    pass.values["sim.noc_bytes"] = u(nocBytes);
    pass.values["sim.mshr_stall_cycles"] = u(mshrStallCycles);
    pass.values["sim.peak_outstanding_txns"] = u(peakOutstanding);
    pass.values["sim.fabric_stall_cycles"] = u(fabricStallCycles);
    pass.values["sim.busy_fraction"] =
        tileLedgerCycles > 0 ? u(tileBusyCycles) / u(tileLedgerCycles)
                             : 0.0;
    pass.values["sim.dram_fill_fraction"] =
        tileLedgerCycles > 0
            ? u(tileDramFillCycles) / u(tileLedgerCycles)
            : 0.0;
    pass.values["wl.timing_only_mismatches"] = u(timingOnlyMismatches);
    pass.exact.set("sim", exact);
}

void
reportSimLayers(const Passes &passes, const Tracer &tracer,
                Report &report)
{
    double busy = passes.selfMedian(tracer, "simulate");
    double ticked = passes.medianOf("sim.ticked_cycles");
    report.layer("sim.busy_s", busy, "s");
    report.layer("sim.mcyc_per_s",
                 passes.medianOf("sim.total_cycles") /
                     passes.callSeconds("simulate") / 1e6,
                 "Mcycles/s");
    report.layer("sim.cycles_geomean", passes.medianOf("cycles_geomean"),
                 "cycles");
    report.layer("sim.ns_per_ticked_cycle",
                 ticked > 0.0 ? busy * 1e9 / ticked : 0.0, "ns");
    const std::pair<const char *, const char *> exact[] = {
        { "sim.ticked_cycles", "cycles" },
        { "sim.skipped_cycles", "cycles" },
        { "sim.skip_ratio", "ratio" },
        { "sim.drained_cycles", "cycles" },
        { "sim.drain_jumps", "count" },
        { "sim.l2_hit_ratio", "ratio" },
        { "sim.dram_bytes", "bytes" },
        { "sim.noc_bytes", "bytes" },
        { "sim.mshr_stall_cycles", "cycles" },
        { "sim.peak_outstanding_txns", "count" },
        { "sim.fabric_stall_cycles", "cycles" },
        { "sim.busy_fraction", "ratio" },
        { "sim.dram_fill_fraction", "ratio" },
        { "wl.timing_only_mismatches", "count" },
    };
    for (const auto &[name, unit] : exact)
        report.layer(name, passes.medianOf(name), unit);
}

} // namespace perfbench
