#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

/**
 * @file
 * The benchmark's own measurement plumbing: host-time spans recorded
 * around the library calls the workloads make (from outside; no
 * program sink is ever attached), a pass loop with a warm-up pass and
 * median aggregation, exact-count checks across passes, and the
 * result line printed last.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** FNV-1a over @p bytes (exact-output fingerprints). */
uint64_t fnv1a(const void *bytes, size_t size,
               uint64_t h = 1469598103934665603ull);

/** Peak resident set in MiB (getrusage): the larger of this process's
 * and that of its largest reaped child (the forked serve workers). */
double peakRssMb();

/** Command line shared by every workload. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (Chrome trace JSON);
     * empty skips the file. */
    std::string spansPath;
};

/**
 * One host-time interval around a call into the program. `parent`
 * indexes the span that was open when this one began (-1 at the
 * root); `pass` is -1 during set-up and the warm-up pass, else the
 * timed pass number.
 */
struct Span
{
    const char *name;
    double start;
    double end;
    int parent;
    int pass;
};

/**
 * Span recorder. Timing from outside happens whether or not spans are
 * kept (the end-to-end metrics need it); recording is the only thing
 * tracing adds, and only on passes where `enabled` is set.
 */
class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : origin(origin) {}

    bool enabled = false;
    int pass = -1;

    /** Time @p fn, recording a span named @p name when enabled.
     * @return host seconds the call took. */
    template <class Fn>
    double
    time(const char *name, Fn &&fn)
    {
        if (!enabled) {
            Clock::time_point t0 = Clock::now();
            fn();
            return secondsSince(t0);
        }
        int index = static_cast<int>(spans.size());
        spans.push_back({ name, now(), 0.0, open, pass });
        int saved = open;
        open = index;
        fn();
        open = saved;
        spans[static_cast<size_t>(index)].end = now();
        return spans[static_cast<size_t>(index)].end -
               spans[static_cast<size_t>(index)].start;
    }

    /** Sum of self time (duration minus child coverage) per span
     * name, over the spans of @p pass. */
    std::map<std::string, double> selfSeconds(int pass) const;

    /** Passes that recorded at least one span. */
    std::vector<int> tracedPasses() const;

    /** Chrome trace_event JSON of every span (microseconds). */
    overgen::Json toChromeTrace() const;

  private:
    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin)
            .count();
    }

    Clock::time_point origin;
    std::vector<Span> spans;
    int open = -1;
};

/** What one pass of a workload produced. */
struct PassResult
{
    /** Host seconds of the timed calls (excludes reference checks). */
    double hostSeconds = 0.0;
    /** Host seconds of each timed call, by call name, in call order.
     * Every pass makes the same calls on the same inputs. */
    std::map<std::string, std::vector<double>> calls;
    /** Per-pass metric values, aggregated by median across passes. */
    std::map<std::string, double> values;
    /** Machine-independent counts and output hashes; every pass of a
     * run must produce the same object. */
    overgen::Json exact = overgen::Json::makeObject();
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Bit-exact output checks that failed (the run is incorrect). */
    uint64_t mismatches = 0;
};

/** A metric as printed in the result line. */
struct Metric
{
    double value;
    std::string unit;
};

/** Everything a workload reports. */
struct Report
{
    std::vector<std::pair<std::string, Metric>> endToEnd;
    std::vector<std::pair<std::string, Metric>> perLayer;
    overgen::Json exact = overgen::Json::makeObject();
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> notes;

    void
    e2e(const std::string &name, double value, const std::string &unit)
    {
        endToEnd.push_back({ name, { value, unit } });
    }
    void
    layer(const std::string &name, double value, const std::string &unit)
    {
        perLayer.push_back({ name, { value, unit } });
    }
};

/** Result of the pass loop: the timed passes, in order. */
struct Passes
{
    std::vector<PassResult> timed;
    /** Median host seconds of traced and untraced timed passes
     * (trace mode only; both sides non-empty). */
    double tracedSeconds = 0.0;
    double untracedSeconds = 0.0;

    /** Median across timed passes of one per-pass value. */
    double medianOf(const std::string &key) const;
    /** Per call of @p name, its median host seconds across timed
     * passes, in call order. A slow stretch of the host then costs
     * only the calls it overlapped, in the passes it overlapped. */
    std::vector<double> callMedians(const std::string &name) const;
    /** Sum of callMedians(@p name). */
    double callSeconds(const std::string &name) const;
    /** Median across traced passes of one span's self time. */
    double selfMedian(const Tracer &tracer, const std::string &name) const;
};

/** Fewest timed passes in a run (untraced, traced). */
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 4;

/**
 * Run one untimed warm-up pass, then timed passes until @p args
 * seconds of pass time have elapsed and at least kMinPasses ran
 * (kMinTracedPasses when tracing).
 * In trace mode timed passes alternate untraced/traced (at least two
 * of each) so the tracing overhead is measured on the same run.
 * Every pass's `exact` must equal the warm-up's; a difference, a
 * failed operation or an output mismatch is folded into @p report.
 */
template <class PassFn>
Passes
runPasses(const Args &args, Tracer &tracer, Report &report, PassFn &&pass)
{
    const int minPasses = args.trace ? kMinTracedPasses : kMinPasses;
    auto account = [&report](const PassResult &r) {
        report.attempted += r.attempted;
        report.failed += r.failed;
        if (r.mismatches > 0)
            report.correct = false;
    };
    tracer.enabled = false;
    tracer.pass = -1;
    PassResult warm = pass();
    account(warm);
    report.exact = warm.exact;

    Passes out;
    double elapsed = 0.0;
    std::vector<double> traced, untraced;
    for (int i = 0; elapsed < args.seconds ||
                    static_cast<int>(out.timed.size()) < minPasses;
         ++i) {
        tracer.enabled = args.trace && i % 2 == 1;
        tracer.pass = i;
        Clock::time_point t0 = Clock::now();
        PassResult r = pass();
        elapsed += secondsSince(t0);
        account(r);
        if (r.exact.dump() != warm.exact.dump()) {
            report.correct = false;
            report.notes.push_back("pass " + std::to_string(i) +
                                   " exact counts differ from warm-up");
        }
        std::fprintf(stderr, "perfbench: pass %d%s %.4f s\n", i,
                     tracer.enabled ? " (traced)" : "", r.hostSeconds);
        (tracer.enabled ? traced : untraced).push_back(r.hostSeconds);
        out.timed.push_back(std::move(r));
    }
    tracer.enabled = false;
    if (!traced.empty() && !untraced.empty()) {
        out.tracedSeconds = overgen::percentile(traced, 50.0);
        out.untracedSeconds = overgen::percentile(untraced, 50.0);
    }
    return out;
}

/** Add the per-layer tracing-overhead metric from @p passes. */
void reportTraceOverhead(const Passes &passes, Report &report);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
