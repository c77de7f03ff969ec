/**
 * @file
 * perfbench: runs one named workload in this process and prints its
 * metrics as the last line of stdout:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <path>]
 *
 * Workloads: sim-compute, overlay-gen, serve-zipf (see the file
 * comment of each). Thread counts are pinned: simulation and DSE run
 * on the calling thread, serving forks two workers. Simulated
 * time is in overlay cycles and is not validated against hardware;
 * host time is wall seconds.
 *
 * With --trace 0 the line holds the end-to-end metrics, which every
 * workload produces; with --trace 1 the per-layer ones, taken from
 * host-time spans recorded around the calls the workload makes
 * (written to --spans as a Chrome trace) and from the structs those
 * calls return. Every workload prints every per-layer metric; one of
 * a layer the workload does not call reads 0.
 * A preceding "exact:" line holds the machine-independent counts and
 * output hashes, which every pass of the run reproduced.
 */

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/** Every per-layer metric, in print order, with its unit. */
const std::pair<const char *, const char *> kPerLayer[] = {
    { "model.train_s", "s" },
    { "model.mlp_val_error", "ratio" },
    { "compiler.compile_ms", "ms" },
    { "compiler.variants", "count" },
    { "sched.first_fit_ms", "ms" },
    { "sched.relaxations", "count" },
    { "sched.unmapped", "count" },
    { "sim.busy_s", "s" },
    { "sim.mcyc_per_s", "Mcycles/s" },
    { "sim.ns_per_ticked_cycle", "ns" },
    { "sim.cycles_geomean", "cycles" },
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
    { "dse.anneal_s", "s" },
    { "dse.validate_s", "s" },
    { "dse.evals_per_s", "1/s" },
    { "dse.evaluated", "count" },
    { "dse.accepted", "count" },
    { "dse.discarded", "count" },
    { "dse.abandoned", "count" },
    { "dse.grid_pruned", "count" },
    { "dse.eval_cache_hit_ratio", "ratio" },
    { "dse.objective", "ipc" },
    { "dse.model_over_sim_ipc", "ratio" },
    { "library.batch_ms", "ms" },
    { "library.batch_p50_ms", "ms" },
    { "library.batch_p90_ms", "ms" },
    { "library.hit_rate", "ratio" },
    { "library.warms", "count" },
    { "library.entries", "count" },
    { "library.bytes", "bytes" },
    { "library.unrouted", "count" },
    { "serve.calls", "count" },
    { "serve.jobs", "count" },
    { "serve.jobs_per_request", "ratio" },
    { "serve.workers_spawned", "count" },
    { "serve.retries", "count" },
    { "serve.abandoned", "count" },
    { "wl.timing_only_mismatches", "count" },
    { "wl.interpret_s", "s" },
    { "trace.overhead_pct", "%" },
};

/** @p reported in kPerLayer order, with 0 for the metrics of layers
 * the workload does not call. */
std::vector<std::pair<std::string, Metric>>
allPerLayer(const std::vector<std::pair<std::string, Metric>> &reported)
{
    std::map<std::string, Metric> byName(reported.begin(), reported.end());
    std::vector<std::pair<std::string, Metric>> out;
    for (const auto &[name, unit] : kPerLayer) {
        auto it = byName.find(name);
        if (it == byName.end()) {
            out.push_back({ name, { 0.0, unit } });
            continue;
        }
        OG_ASSERT(it->second.unit == unit, name, " reported in ",
                  it->second.unit, ", listed in ", unit);
        out.push_back(*it);
        byName.erase(it);
    }
    OG_ASSERT(byName.empty(), "per-layer metric ", byName.begin()->first,
              " is not listed");
    return out;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    std::string trace = "0";
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i];
        std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            trace = value;
        else if (flag == "--spans")
            args.spansPath = value;
        else
            OG_FATAL("unknown argument '", flag, "'");
    }
    if (argc % 2 != 1)
        OG_FATAL("flag '", argv[argc - 1], "' has no value");
    OG_ASSERT(trace == "0" || trace == "1", "--trace must be 0 or 1");
    OG_ASSERT(args.seconds > 0.0, "--seconds must be positive");
    args.trace = trace == "1";
    return args;
}

void
appendMetrics(std::string &out,
              const std::vector<std::pair<std::string, Metric>> &metrics)
{
    char buf[64];
    bool first = true;
    for (const auto &[name, metric] : metrics) {
        std::snprintf(buf, sizeof buf, "%.17g", metric.value);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               metric.unit + "\"}";
        first = false;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    Tracer tracer(Clock::now());
    Report report;
    if (args.workload == "sim-compute")
        runSimCompute(args, tracer, report);
    else if (args.workload == "overlay-gen")
        runOverlayGen(args, tracer, report);
    else if (args.workload == "serve-zipf")
        runServeZipf(args, tracer, report);
    else
        OG_FATAL("unknown workload '", args.workload, "'");

    if (report.attempted == 0)
        OG_FATAL("workload attempted nothing");
    report.e2e("ok_ratio",
               static_cast<double>(report.attempted - report.failed) /
                   static_cast<double>(report.attempted),
               "ratio");
    report.e2e("peak_rss_mb", peakRssMb(), "MiB");

    for (const std::string &note : report.notes)
        std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    if (args.trace && !args.spansPath.empty()) {
        std::string text = tracer.toChromeTrace().dump();
        std::FILE *f = std::fopen(args.spansPath.c_str(), "w");
        OG_ASSERT(f != nullptr, "cannot open '", args.spansPath, "'");
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
    }
    std::printf("exact: %s\n", report.exact.dump().c_str());
    std::string line = "{\"correct\": ";
    line += report.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(report.attempted);
    line += ", \"failed\": " + std::to_string(report.failed);
    line += ", \"metrics\": {";
    appendMetrics(line,
                  args.trace ? allPerLayer(report.perLayer) : report.endToEnd);
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
