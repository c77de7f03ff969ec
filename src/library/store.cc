#include "library/store.h"

#include <algorithm>
#include <cstdio>

#include "common/hash.h"
#include "common/hex.h"
#include "common/logging.h"

namespace overgen::library {

namespace {

/** Library fingerprint salts — distinct from the warm-sim cache's
 * (dse/sim_cache.cc), so a hypothetical collision in one keyspace
 * cannot leak into the other. */
constexpr uint64_t kSaltA = 0x9e3779b97f4a7c15ull;
constexpr uint64_t kSaltB = 0xd1b54a32d192ed03ull;

uint64_t
systemParamsHash(const adg::SystemParams &sys)
{
    uint64_t h = hash::mix64(static_cast<uint64_t>(sys.numTiles));
    h = hash::mix64(h ^ static_cast<uint64_t>(sys.l2Banks));
    h = hash::mix64(h ^ static_cast<uint64_t>(sys.l2CapacityKiB));
    h = hash::mix64(h ^ static_cast<uint64_t>(sys.nocBytes));
    h = hash::mix64(h ^ static_cast<uint64_t>(sys.dramChannels));
    return h;
}

/** @name Non-fatal field extraction for LibraryEntry::fromJson. */
/// @{
bool
getString(const Json &obj, const char *key, std::string &out,
          std::string *error)
{
    if (!obj.contains(key) || !obj.at(key).isString()) {
        if (error != nullptr)
            *error = std::string("missing/ill-typed string field '") +
                     key + "'";
        return false;
    }
    out = obj.at(key).asString();
    return true;
}

bool
getNumber(const Json &obj, const char *key, double &out,
          std::string *error)
{
    if (!obj.contains(key) || !obj.at(key).isNumber()) {
        if (error != nullptr)
            *error = std::string("missing/ill-typed number field '") +
                     key + "'";
        return false;
    }
    out = obj.at(key).asNumber();
    return true;
}

bool
getBool(const Json &obj, const char *key, bool &out,
        std::string *error)
{
    if (!obj.contains(key) || !obj.at(key).isBool()) {
        if (error != nullptr)
            *error = std::string("missing/ill-typed bool field '") +
                     key + "'";
        return false;
    }
    out = obj.at(key).asBool();
    return true;
}

bool
getHex64(const Json &obj, const char *key, uint64_t &out,
         std::string *error)
{
    std::string text;
    if (!getString(obj, key, text, error))
        return false;
    if (!tryParseHexU64(text, out)) {
        if (error != nullptr)
            *error = std::string("bad hex64 value in field '") + key +
                     "'";
        return false;
    }
    return true;
}
/// @}

Json
recordToJson(const KernelRecord &record)
{
    Json obj = Json::makeObject();
    obj.set("kernel", Json(record.kernel));
    obj.set("feasible", Json(record.feasible));
    obj.set("score", Json(record.score));
    obj.set("ipc", Json(record.ipc));
    if (!record.variant.empty())
        obj.set("variant", Json(record.variant));
    if (!record.bottleneck.empty())
        obj.set("bottleneck", Json(record.bottleneck));
    return obj;
}

std::optional<KernelRecord>
recordFromJson(const Json &json, std::string *error)
{
    if (!json.isObject()) {
        if (error != nullptr)
            *error = "record is not an object";
        return std::nullopt;
    }
    KernelRecord record;
    if (!getString(json, "kernel", record.kernel, error) ||
        !getBool(json, "feasible", record.feasible, error) ||
        !getNumber(json, "score", record.score, error) ||
        !getNumber(json, "ipc", record.ipc, error))
        return std::nullopt;
    if (json.contains("variant")) {
        if (!getString(json, "variant", record.variant, error))
            return std::nullopt;
    }
    if (json.contains("bottleneck")) {
        if (!getString(json, "bottleneck", record.bottleneck, error))
            return std::nullopt;
    }
    return record;
}

} // namespace

const KernelRecord *
LibraryEntry::findRecord(const std::string &kernel) const
{
    auto it = std::lower_bound(
        records.begin(), records.end(), kernel,
        [](const KernelRecord &r, const std::string &k) {
            return r.kernel < k;
        });
    if (it == records.end() || it->kernel != kernel)
        return nullptr;
    return &*it;
}

void
LibraryEntry::upsertRecord(KernelRecord record)
{
    auto it = std::lower_bound(
        records.begin(), records.end(), record.kernel,
        [](const KernelRecord &r, const std::string &k) {
            return r.kernel < k;
        });
    if (it != records.end() && it->kernel == record.kernel)
        *it = std::move(record);
    else
        records.insert(it, std::move(record));
}

Json
LibraryEntry::toJson() const
{
    Json obj = Json::makeObject();
    obj.set("fp_a", Json(hexU64(fpA)));
    obj.set("fp_b", Json(hexU64(fpB)));
    obj.set("design", design.toJson());
    Json res = Json::makeObject();
    res.set("lut", Json(resources.lut));
    res.set("ff", Json(resources.ff));
    res.set("bram", Json(resources.bram));
    res.set("dsp", Json(resources.dsp));
    obj.set("resources", std::move(res));
    obj.set("utilization", Json(utilization));
    obj.set("origin", Json(origin));
    if (warmSeed != 0)
        obj.set("warm_seed", Json(hexU64(warmSeed)));
    if (warmIterations != 0)
        obj.set("warm_iters", Json(warmIterations));
    Json recordArray = Json::makeArray();
    for (const KernelRecord &record : records)
        recordArray.push(recordToJson(record));
    obj.set("records", std::move(recordArray));
    return obj;
}

std::optional<LibraryEntry>
LibraryEntry::fromJson(const Json &json, std::string *error)
{
    if (!json.isObject()) {
        if (error != nullptr)
            *error = "entry is not an object";
        return std::nullopt;
    }
    LibraryEntry entry;
    if (!getHex64(json, "fp_a", entry.fpA, error) ||
        !getHex64(json, "fp_b", entry.fpB, error) ||
        !getNumber(json, "utilization", entry.utilization, error) ||
        !getString(json, "origin", entry.origin, error))
        return std::nullopt;
    if (!json.contains("design") || !json.at("design").isObject() ||
        !json.at("design").contains("adg") ||
        !json.at("design").contains("system")) {
        if (error != nullptr)
            *error = "missing/ill-typed design field";
        return std::nullopt;
    }
    entry.design = adg::SysAdg::fromJson(json.at("design"));
    if (!json.contains("resources") ||
        !json.at("resources").isObject()) {
        if (error != nullptr)
            *error = "missing/ill-typed resources field";
        return std::nullopt;
    }
    const Json &res = json.at("resources");
    if (!getNumber(res, "lut", entry.resources.lut, error) ||
        !getNumber(res, "ff", entry.resources.ff, error) ||
        !getNumber(res, "bram", entry.resources.bram, error) ||
        !getNumber(res, "dsp", entry.resources.dsp, error))
        return std::nullopt;
    if (json.contains("warm_seed")) {
        if (!getHex64(json, "warm_seed", entry.warmSeed, error))
            return std::nullopt;
    }
    if (json.contains("warm_iters")) {
        if (!json.at("warm_iters").isNumber()) {
            if (error != nullptr)
                *error = "ill-typed warm_iters field";
            return std::nullopt;
        }
        entry.warmIterations =
            static_cast<int>(json.at("warm_iters").asInt());
    }
    if (!json.contains("records") || !json.at("records").isArray()) {
        if (error != nullptr)
            *error = "missing/ill-typed records field";
        return std::nullopt;
    }
    for (const Json &recordJson : json.at("records").asArray()) {
        auto record = recordFromJson(recordJson, error);
        if (!record)
            return std::nullopt;
        entry.upsertRecord(std::move(*record));
    }
    return entry;
}

adg::SysAdg
canonicalDesign(const adg::SysAdg &design)
{
    return adg::SysAdg::fromJson(design.toJson());
}

std::pair<uint64_t, uint64_t>
fingerprintDesign(const adg::SysAdg &design)
{
    std::pair<uint64_t, uint64_t> fp =
        design.adg.fingerprintPair(kSaltA, kSaltB);
    uint64_t sysHash = systemParamsHash(design.sys);
    return { hash::mix64(fp.first ^ sysHash),
             hash::mix64(fp.second ^ hash::mix64(sysHash)) };
}

size_t
OverlayLibrary::insert(LibraryEntry entry)
{
    entry.design = canonicalDesign(entry.design);
    std::tie(entry.fpA, entry.fpB) = fingerprintDesign(entry.design);
    if (auto existing = findByFingerprint(entry.fpA, entry.fpB)) {
        LibraryEntry &target = entries[*existing];
        for (KernelRecord &record : entry.records)
            target.upsertRecord(std::move(record));
        return *existing;
    }
    entries.push_back(std::move(entry));
    return entries.size() - 1;
}

std::optional<size_t>
OverlayLibrary::findByFingerprint(uint64_t a, uint64_t b) const
{
    for (size_t i = 0; i < entries.size(); ++i)
        if (entries[i].fpA == a && entries[i].fpB == b)
            return i;
    return std::nullopt;
}

std::string
OverlayLibrary::toJsonl() const
{
    std::string out;
    for (const LibraryEntry &entry : entries) {
        out += entry.toJson().dump();
        out += '\n';
    }
    return out;
}

bool
OverlayLibrary::save(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::string text = toJsonl();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return true;
}

bool
OverlayLibrary::load(const std::string &path)
{
    entries.clear();
    lastLoad = {};
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return false;
    std::string text;
    char chunk[4096];
    size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        text.append(chunk, n);
    std::fclose(f);

    size_t lineStart = 0;
    size_t lineNumber = 0;
    while (lineStart < text.size()) {
        size_t lineEnd = text.find('\n', lineStart);
        // A line without a trailing newline is a torn final write;
        // still decoded (it parses or it doesn't).
        if (lineEnd == std::string::npos)
            lineEnd = text.size();
        std::string line =
            text.substr(lineStart, lineEnd - lineStart);
        lineStart = lineEnd + 1;
        ++lineNumber;
        if (line.empty())
            continue;

        std::string error;
        std::optional<Json> json = Json::tryParse(line, &error);
        if (!json) {
            ++lastLoad.skippedParse;
            OG_WARN("library '", path, "' line ", lineNumber,
                    ": skipped (", error, ")");
            continue;
        }
        auto entry = LibraryEntry::fromJson(*json, &error);
        if (!entry) {
            ++lastLoad.skippedFields;
            OG_WARN("library '", path, "' line ", lineNumber,
                    ": skipped (", error, ")");
            continue;
        }
        std::pair<uint64_t, uint64_t> fp =
            fingerprintDesign(entry->design);
        if (fp.first != entry->fpA || fp.second != entry->fpB) {
            ++lastLoad.skippedFingerprint;
            OG_WARN("library '", path, "' line ", lineNumber,
                    ": skipped (fingerprint mismatch: stored ",
                    hexU64(entry->fpA), "/", hexU64(entry->fpB),
                    ", recomputed ", hexU64(fp.first), "/",
                    hexU64(fp.second), ")");
            continue;
        }
        insert(std::move(*entry));
        ++lastLoad.entries;
    }
    return true;
}

} // namespace overgen::library
