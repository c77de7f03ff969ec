/**
 * @file
 * serve-zipf: one closed-loop client sends fixed-size batches of a
 * seeded Zipf (alpha 1.1) request trace over the 19 suite kernels
 * through LibraryService in server mode (two forked workers per serve
 * call). Every pass starts from an empty library, so the first
 * batches warm overlays (bounded DSE) and the rest are matched. Each
 * batch is timed from admission to answer.
 *
 * Which overlays a cold library grows depends on which kernels first
 * miss in the same batch. Without a fixed opening, seeds 1 and 2 grew
 * 10 and 13 entries, and every later batch, scored against every
 * entry, took 25 and 35 ms on one 4-core Xeon host. So the trace
 * opens with every kernel once, in suite order, and the library grows
 * the same way on every seed; the seed draws the requests after that.
 */

#include <algorithm>
#include <cmath>
#include <set>

#include "common/hex.h"
#include "common/logging.h"
#include "common/stats.h"
#include "library/service.h"
#include "workloads.h"
#include "workloads/suites.h"

namespace perfbench {

namespace {

namespace library = overgen::library;
namespace wl = overgen::wl;

constexpr size_t kBatches = 100;
constexpr size_t kBatchSize = 16;
constexpr int kWorkers = 2;

uint64_t
splitmix(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** @p count requests: every suite kernel once, in suite order, then
 * Zipf draws over the suite. Popularity rank follows suite order, so
 * every seed has the same expected request mix; the seed picks only
 * the draws. */
std::vector<std::string>
makeTrace(size_t count, uint64_t seed)
{
    std::vector<std::string> names;
    for (const wl::KernelSpec &spec : wl::allWorkloads())
        names.push_back(spec.name);
    std::vector<std::string> trace = names;
    uint64_t state = seed;
    std::vector<double> cdf(names.size());
    double total = 0.0;
    for (size_t rank = 0; rank < names.size(); ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank + 1), 1.1);
        cdf[rank] = total;
    }
    while (trace.size() < count) {
        double u = static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53 *
                   total;
        size_t rank = static_cast<size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        trace.push_back(names[std::min(rank, names.size() - 1)]);
    }
    return trace;
}

} // namespace

void
runServeZipf(const Args &args, Tracer &tracer, Report &report)
{
    // Trained before any fork, so every worker inherits the model.
    TrainedModel trained = trainModel(args, tracer);

    std::vector<std::string> trace =
        makeTrace(kBatches * kBatchSize, args.seed);
    library::ServiceOptions options;
    options.smallSize = true;
    options.match.applyTuning = true;
    options.match.threads = 1;
    options.useServer = true;
    options.serve.workers = kWorkers;

    Passes passes = runPasses(args, tracer, report, [&] {
        PassResult pass;
        library::LibraryService service(options);
        uint64_t hits = 0, warms = 0, unrouted = 0;
        for (size_t start = 0; start < trace.size(); start += kBatchSize) {
            std::vector<std::string> batch(
                trace.begin() + static_cast<long>(start),
                trace.begin() + static_cast<long>(start + kBatchSize));
            std::vector<library::RequestOutcome> outcomes;
            double seconds = tracer.time("processBatch", [&] {
                outcomes = service.processBatch(batch);
            });
            pass.hostSeconds += seconds;
            pass.calls["processBatch"].push_back(seconds);
            std::set<std::string> warmed;
            for (const library::RequestOutcome &outcome : outcomes) {
                hits += outcome.hit ? 1 : 0;
                if (outcome.warmed)
                    warmed.insert(outcome.workload);
                if (outcome.entryIndex < 0)
                    ++unrouted;
            }
            warms += warmed.size();
        }
        uint64_t calls = service.serveSummaries().size();
        uint64_t jobs = 0, spawned = 0, retries = 0, abandoned = 0;
        for (const overgen::serve::ServeSummary &s :
             service.serveSummaries()) {
            jobs += s.jobs;
            spawned += s.workersSpawned;
            retries += s.retries;
            abandoned += s.abandoned;
        }
        std::string jsonl = service.library().toJsonl();
        pass.attempted = trace.size() + jobs;
        pass.failed = unrouted + abandoned;
        if (unrouted + abandoned > 0)
            OG_WARN(unrouted, " unrouted requests, ", abandoned,
                    " abandoned serve jobs");

        auto u = [](uint64_t v) { return static_cast<double>(v); };
        double requests = u(trace.size());
        pass.values["hit_rate"] = u(hits) / requests;
        pass.values["library.warms"] = u(warms);
        pass.values["library.entries"] =
            u(service.library().entries.size());
        pass.values["library.bytes"] = u(jsonl.size());
        pass.values["library.unrouted"] = u(unrouted);
        pass.values["serve.calls"] = u(calls);
        pass.values["serve.jobs"] = u(jobs);
        pass.values["serve.jobs_per_request"] = u(jobs) / requests;
        pass.values["serve.workers_spawned"] = u(spawned);
        pass.values["serve.retries"] = u(retries);
        pass.values["serve.abandoned"] = u(abandoned);
        pass.exact.set("hits", overgen::Json(hits));
        pass.exact.set("warms", overgen::Json(warms));
        pass.exact.set("jobs", overgen::Json(jobs));
        pass.exact.set("library",
                       overgen::Json(overgen::hexU64(
                           fnv1a(jsonl.data(), jsonl.size()))));
        return pass;
    });

    // Batch i is the same work in every pass (same trace, cold
    // library), so its latency is its median across passes.
    report.e2e("setup_s", trained.seconds, "s");
    report.e2e("pass_s", passes.callSeconds("processBatch"), "s");
    if (!args.trace)
        return;
    reportModelLayers(trained, report);
    report.layer("library.hit_rate", passes.medianOf("hit_rate"), "ratio");
    std::vector<double> batches = passes.callMedians("processBatch");
    report.layer("library.batch_p50_ms",
                 1e3 * overgen::percentile(batches, 50.0), "ms");
    report.layer("library.batch_p90_ms",
                 1e3 * overgen::percentile(batches, 90.0), "ms");
    report.layer("library.batch_ms",
                 1e3 * passes.selfMedian(tracer, "processBatch") /
                     static_cast<double>(kBatches),
                 "ms");
    const std::pair<const char *, const char *> counts[] = {
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
    };
    for (const auto &[name, unit] : counts)
        report.layer(name, passes.medianOf(name), unit);
    reportTraceOverhead(passes, report);
}

} // namespace perfbench
