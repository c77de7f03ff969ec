#include "harness.h"

#include <sys/resource.h>

namespace perfbench {

uint64_t
fnv1a(const void *bytes, size_t size, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in KiB on Linux.
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

std::map<std::string, double>
Tracer::selfSeconds(int which) const
{
    std::vector<double> self(spans.size(), 0.0);
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].pass != which)
            continue;
        double duration = spans[i].end - spans[i].start;
        self[i] += duration;
        if (spans[i].parent >= 0)
            self[static_cast<size_t>(spans[i].parent)] -= duration;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].pass == which)
            out[spans[i].name] += self[i];
    return out;
}

std::vector<int>
Tracer::tracedPasses() const
{
    std::vector<int> out;
    for (const Span &span : spans)
        if (span.pass >= 0 &&
            (out.empty() || out.back() != span.pass))
            out.push_back(span.pass);
    return out;
}

overgen::Json
Tracer::toChromeTrace() const
{
    using overgen::Json;
    Json events = Json::makeArray();
    for (size_t i = 0; i < spans.size(); ++i) {
        Json event = Json::makeObject();
        event.set("name", Json(spans[i].name));
        event.set("ph", Json("X"));
        event.set("ts", Json(spans[i].start * 1e6));
        event.set("dur", Json((spans[i].end - spans[i].start) * 1e6));
        event.set("pid", Json(1));
        event.set("tid", Json(1));
        Json fields = Json::makeObject();
        fields.set("id", Json(static_cast<int64_t>(i)));
        fields.set("parent", Json(spans[i].parent));
        fields.set("pass", Json(spans[i].pass));
        event.set("args", std::move(fields));
        events.push(std::move(event));
    }
    Json trace = Json::makeObject();
    trace.set("traceEvents", std::move(events));
    return trace;
}

double
Passes::medianOf(const std::string &key) const
{
    std::vector<double> values;
    for (const PassResult &r : timed) {
        auto it = r.values.find(key);
        if (it != r.values.end())
            values.push_back(it->second);
    }
    return overgen::percentile(values, 50.0);
}

std::vector<double>
Passes::callMedians(const std::string &name) const
{
    std::vector<double> out;
    for (size_t call = 0;; ++call) {
        std::vector<double> seconds;
        for (const PassResult &r : timed) {
            auto it = r.calls.find(name);
            if (it != r.calls.end() && call < it->second.size())
                seconds.push_back(it->second[call]);
        }
        if (seconds.empty())
            return out;
        out.push_back(overgen::percentile(seconds, 50.0));
    }
}

double
Passes::callSeconds(const std::string &name) const
{
    double sum = 0.0;
    for (double seconds : callMedians(name))
        sum += seconds;
    return sum;
}

double
Passes::selfMedian(const Tracer &tracer, const std::string &name) const
{
    std::vector<double> values;
    for (int pass : tracer.tracedPasses()) {
        std::map<std::string, double> self = tracer.selfSeconds(pass);
        auto it = self.find(name);
        values.push_back(it == self.end() ? 0.0 : it->second);
    }
    return overgen::percentile(values, 50.0);
}

void
reportTraceOverhead(const Passes &passes, Report &report)
{
    if (passes.untracedSeconds <= 0.0)
        return;
    report.layer("trace.overhead_pct",
                 100.0 * (passes.tracedSeconds - passes.untracedSeconds) /
                     passes.untracedSeconds,
                 "%");
}

} // namespace perfbench
