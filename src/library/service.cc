#include "library/service.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "dse/explorer.h"
#include "model/resource_model.h"
#include "workloads/suites.h"

namespace overgen::library {

namespace {

wl::KernelSpec
resolveSpec(const std::string &workload, bool smallSize)
{
    return smallSize ? wl::smallWorkloadByName(workload)
                     : wl::workloadByName(workload);
}

} // namespace

uint64_t
LibraryService::warmSeedFor(const std::string &workload, uint64_t salt)
{
    // DseOptions::seed feeds splitmix expansion, so 0 is legal, but
    // avoid it anyway: a zero seed reads as "unset" in entry JSON.
    uint64_t seed = hash::mix64(hash::fnv1a(workload) ^ salt);
    return seed == 0 ? 1 : seed;
}

LibraryEntry
warmOverlay(const std::string &workload, bool smallSize,
            bool applyTuning, uint64_t seed, int iterations,
            const MatchOptions &options)
{
    wl::KernelSpec spec = resolveSpec(workload, smallSize);
    dse::DseOptions dopts;
    dopts.seed = seed;
    dopts.iterations = std::max(iterations, 1);
    // The warm itself runs single-threaded: the serve worker pool is
    // the parallelism, and the trajectory is thread-count-invariant
    // anyway — this only pins wall-clock behavior inside workers.
    dopts.threads = 1;
    dopts.applyTuning = applyTuning;
    dopts.heartbeatEvery = 0;
    dopts.perf = options.perf;
    dse::DseResult result = dse::exploreOverlay({ spec }, dopts);

    LibraryEntry entry;
    entry.design = canonicalDesign(result.design);
    std::tie(entry.fpA, entry.fpB) = fingerprintDesign(entry.design);
    entry.resources = result.resources;
    entry.utilization = result.utilization;
    entry.origin = "warm:" + spec.name;
    entry.warmSeed = seed;
    entry.warmIterations = dopts.iterations;
    // Score the kernel on its own overlay with the matcher's scoring,
    // so the re-match after warming reads this memoized record and
    // every path (in-process, server, retry) agrees byte-for-byte.
    MatchOptions scoring = options;
    scoring.applyTuning = applyTuning;
    scoring.threads = 1;
    entry.upsertRecord(scoreKernelOnDesign(spec, entry.design, scoring));
    return entry;
}

serve::JobHandler
makeLibraryHandler(MatchOptions options)
{
    options.threads = 1;  // workers stay single-threaded
    return [options](const serve::JobSpec &job,
                     const std::vector<
                         std::shared_ptr<const adg::SysAdg>> &designs)
               -> serve::ResultRow {
        serve::ResultRow row;
        MatchOptions mopts = options;
        mopts.applyTuning = job.applyTuning;
        if (job.kind == serve::JobKind::Match) {
            wl::KernelSpec spec =
                resolveSpec(job.workload, job.smallSize);
            for (int id : job.matchDesigns) {
                OG_ASSERT(id >= 0 &&
                              id < static_cast<int>(designs.size()),
                          "match job references unknown design ", id);
                KernelRecord record =
                    scoreKernelOnDesign(spec, *designs[id], mopts);
                serve::WireScore score;
                score.design = id;
                score.feasible = record.feasible;
                score.score = record.score;
                score.ipc = record.ipc;
                score.variant = record.variant;
                score.bottleneck = record.bottleneck;
                row.scores.push_back(std::move(score));
            }
            row.ok = true;
            return row;
        }
        if (job.kind == serve::JobKind::Warm) {
            LibraryEntry entry =
                warmOverlay(job.workload, job.smallSize,
                            job.applyTuning, job.warmSeed,
                            job.warmIterations, mopts);
            if (const KernelRecord *record = entry.findRecord(
                    resolveSpec(job.workload, job.smallSize).name)) {
                row.ipc = record->ipc;
                row.variant = record->variant;
            }
            row.payload = entry.toJson();
            row.ok = true;
            return row;
        }
        row.diagnostic = "library handler: unsupported job kind";
        return row;
    };
}

LibraryService::LibraryService(ServiceOptions opts, OverlayLibrary l)
    : lib(std::move(l)), options(std::move(opts))
{
}

wl::KernelSpec
LibraryService::specFor(const std::string &workload) const
{
    return resolveSpec(workload, options.smallSize);
}

serve::CoordinatorOptions
LibraryService::serveOptions() const
{
    serve::CoordinatorOptions copts = options.serve;
    copts.handler = makeLibraryHandler(options.match);
    return copts;
}

void
LibraryService::serveMatch(const std::vector<std::string> &distinct)
{
    serve::JobSet set;
    for (const LibraryEntry &entry : lib.entries)
        set.addDesignJson(entry.design.toJson());
    std::vector<int> ids;
    for (int i = 0; i < static_cast<int>(lib.entries.size()); ++i)
        ids.push_back(i);
    for (const std::string &workload : distinct)
        set.addMatchJob(workload, ids, options.match.applyTuning,
                        options.smallSize);
    serve::ServeOutcome outcome =
        serve::serveJobs(set, serveOptions());
    mergedLog += serve::mergedJsonl(set, outcome.rows);
    summaries.push_back(outcome.summary);
    // Memoize the shipped scores; failed rows (abandoned shards) are
    // simply absent — matchAndRecord backfills them in-process with
    // the same pure scoring, so the final record set is identical.
    for (size_t j = 0; j < outcome.rows.size(); ++j) {
        const serve::ResultRow &row = outcome.rows[j];
        if (!row.ok)
            continue;
        for (const serve::WireScore &score : row.scores) {
            KernelRecord record;
            record.kernel = set.jobs[j].workload;
            record.feasible = score.feasible;
            record.score = score.score;
            record.ipc = score.ipc;
            record.variant = score.variant;
            record.bottleneck = score.bottleneck;
            lib.entries[static_cast<size_t>(score.design)]
                .upsertRecord(std::move(record));
        }
    }
}

void
LibraryService::serveWarm(const std::vector<std::string> &misses)
{
    serve::JobSet set;
    for (const std::string &workload : misses) {
        set.addWarmJob(workload,
                       warmSeedFor(workload, options.warmSeedSalt),
                       options.warmIterations,
                       options.match.applyTuning, options.smallSize);
    }
    serve::ServeOutcome outcome =
        serve::serveJobs(set, serveOptions());
    mergedLog += serve::mergedJsonl(set, outcome.rows);
    summaries.push_back(outcome.summary);
    // Insert in job order (first-miss order), never completion order.
    for (size_t j = 0; j < outcome.rows.size(); ++j) {
        const serve::ResultRow &row = outcome.rows[j];
        const serve::JobSpec &job = set.jobs[j];
        std::string error;
        std::optional<LibraryEntry> entry;
        if (row.ok && !row.payload.isNull())
            entry = LibraryEntry::fromJson(row.payload, &error);
        if (!entry) {
            // Abandoned or mangled row: recompute in-process. The
            // entry is a pure function of the job, so the library
            // bytes still match a crash-free run.
            OG_WARN("serve warm for '", job.workload,
                    "' returned no entry (",
                    row.ok ? error : row.diagnostic,
                    "); warming in-process");
            entry = warmOverlay(job.workload, job.smallSize,
                                job.applyTuning, job.warmSeed,
                                job.warmIterations, options.match);
        }
        lib.insert(std::move(*entry));
    }
}

std::vector<RequestOutcome>
LibraryService::processBatch(const std::vector<std::string> &workloads)
{
    std::vector<RequestOutcome> outcomes(workloads.size());
    std::vector<std::string> distinct;
    std::set<std::string> seen;
    for (const std::string &workload : workloads) {
        if (seen.insert(workload).second)
            distinct.push_back(workload);
    }

    if (options.useServer) {
        // Train the shared resource model before any fork, so every
        // worker inherits it instead of re-training per process.
        model::FpgaResourceModel::defaultModel();
    }

    // Phase A: match every distinct workload against the library as
    // admitted (server mode ships the scoring to the workers; the
    // in-process matchAndRecord then reads the memoized records).
    if (options.useServer && !lib.entries.empty() && !distinct.empty())
        serveMatch(distinct);
    std::map<std::string, MatchResult> picks;
    std::set<std::string> admissionHits;
    for (const std::string &workload : distinct) {
        picks[workload] =
            matchAndRecord(lib, specFor(workload), options.match);
        if (picks[workload].hit())
            admissionHits.insert(workload);
    }

    // Phase B: warm distinct misses in first-miss order.
    std::vector<std::string> misses;
    for (const std::string &workload : distinct)
        if (!picks[workload].hit())
            misses.push_back(workload);
    if (!misses.empty()) {
        if (options.useServer) {
            serveWarm(misses);
        } else {
            for (const std::string &workload : misses) {
                lib.insert(warmOverlay(
                    workload, options.smallSize,
                    options.match.applyTuning,
                    warmSeedFor(workload, options.warmSeedSalt),
                    options.warmIterations, options.match));
            }
        }
        // Phase C: re-match the misses against the grown library.
        for (const std::string &workload : misses) {
            picks[workload] =
                matchAndRecord(lib, specFor(workload), options.match);
        }
    }

    std::set<std::string> warmedSet(misses.begin(), misses.end());
    for (size_t i = 0; i < workloads.size(); ++i) {
        RequestOutcome &outcome = outcomes[i];
        outcome.workload = workloads[i];
        outcome.hit = admissionHits.count(workloads[i]) > 0;
        outcome.warmed = warmedSet.count(workloads[i]) > 0;
        const MatchResult &pick = picks[workloads[i]];
        outcome.entryIndex = pick.entryIndex;
        outcome.record = pick.record;
    }
    return outcomes;
}

} // namespace overgen::library
