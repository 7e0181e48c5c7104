/**
 * @file
 * Request parsing, validation, canonicalization, and hashing.
 */

#include "service/request.hh"

#include <algorithm>
#include <cstdio>

#include "common/crc32c.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/system_sim.hh"
#include "cpu/workloads.hh"
#include "dram/dram_params.hh"

namespace arcc
{

namespace
{

/** Request-size policy: a shared daemon must bound what one request
 *  may cost.  Out-of-policy requests are rejected at parse time with
 *  a message naming the limit, never truncated to it. */
constexpr std::uint64_t kMaxInstrs = 1ULL << 32;
constexpr std::uint64_t kMaxChannels = 1ULL << 22;
constexpr std::size_t kTraceCores = 4;

const char *
kindName(ServiceRequestKind k)
{
    switch (k) {
      case ServiceRequestKind::Mix: return "mix";
      case ServiceRequestKind::Trace: return "trace";
      case ServiceRequestKind::Campaign: return "campaign";
      case ServiceRequestKind::Stats: return "stats";
      case ServiceRequestKind::Shutdown: return "shutdown";
    }
    panic("unhandled ServiceRequestKind %d", static_cast<int>(k));
}

/** CRC-32C of a file's bytes; false when it cannot be read. */
bool
fileCrc32c(const std::string &path, std::uint32_t &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return false;
    Crc32c crc;
    std::uint8_t buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        crc.update({buf, n});
    const bool ok = std::ferror(f) == 0;
    std::fclose(f);
    out = crc.value();
    return ok;
}

/** Typed member extraction; each setter fails with the key name. */
struct Fields
{
    const json::Value &doc;
    std::string &error;

    bool
    u64(const char *key, std::uint64_t &out)
    {
        const json::Value *v = doc.find(key);
        if (!v)
            return true;
        if (v->type != json::Value::Type::Number || !v->isUint) {
            error = std::string("\"") + key +
                    "\" must be an unsigned integer";
            return false;
        }
        out = v->uintValue;
        return true;
    }

    bool
    num(const char *key, double &out)
    {
        const json::Value *v = doc.find(key);
        if (!v)
            return true;
        if (v->type != json::Value::Type::Number) {
            error = std::string("\"") + key + "\" must be a number";
            return false;
        }
        out = v->number;
        return true;
    }

    bool
    str(const char *key, std::string &out)
    {
        const json::Value *v = doc.find(key);
        if (!v)
            return true;
        if (v->type != json::Value::Type::String) {
            error = std::string("\"") + key + "\" must be a string";
            return false;
        }
        out = v->str;
        return true;
    }

    bool
    boolean(const char *key, bool &out)
    {
        const json::Value *v = doc.find(key);
        if (!v)
            return true;
        if (v->type != json::Value::Type::Bool) {
            error = std::string("\"") + key + "\" must be a boolean";
            return false;
        }
        out = v->boolean;
        return true;
    }
};

/** Reject any member outside the kind's schema: a typo'd key must not
 *  silently fall back to a default (the wire-level analogue of the
 *  silent-zero CLI holes). */
bool
onlyKeys(const json::Value &doc, std::string &error,
         std::initializer_list<const char *> allowed)
{
    for (const auto &[key, v] : doc.object) {
        bool ok = false;
        for (const char *a : allowed)
            if (key == a)
                ok = true;
        if (!ok) {
            error = "unknown key \"" + key + "\" for this kind";
            return false;
        }
    }
    return true;
}

std::uint64_t
foldU64(std::uint64_t h, std::uint64_t v)
{
    return Rng::mix64(h ^ v);
}

} // anonymous namespace

bool
ServiceRequest::parse(const std::string &line, ServiceRequest &out,
                      std::string &error)
{
    json::Value doc;
    if (!json::parse(line, doc, error))
        return false;
    if (doc.type != json::Value::Type::Object) {
        error = "request must be a JSON object";
        return false;
    }
    const json::Value *kindV = doc.find("kind");
    if (!kindV || kindV->type != json::Value::Type::String) {
        error = "request needs a string \"kind\"";
        return false;
    }

    out = ServiceRequest{};
    const std::string &kind = kindV->str;
    Fields f{doc, error};

    if (kind == "stats" || kind == "shutdown") {
        out.kind = kind == "stats" ? ServiceRequestKind::Stats
                                   : ServiceRequestKind::Shutdown;
        return onlyKeys(doc, error, {"kind"});
    }

    if (kind == "mix" || kind == "trace") {
        out.kind = kind == "mix" ? ServiceRequestKind::Mix
                                 : ServiceRequestKind::Trace;
        if (kind == "mix") {
            if (!onlyKeys(doc, error,
                          {"kind", "config", "mix", "fault",
                           "fraction", "instrs", "sectored", "seed"}))
                return false;
            if (!f.str("mix", out.mix))
                return false;
        } else {
            if (!onlyKeys(doc, error,
                          {"kind", "config", "fault", "fraction",
                           "instrs", "sectored", "seed", "paths",
                           "trace_crcs"}))
                return false;
        }
        if (!f.str("config", out.config) ||
            !f.str("fault", out.fault) ||
            !f.num("fraction", out.fraction) ||
            !f.u64("instrs", out.instrs) ||
            !f.boolean("sectored", out.sectored) ||
            !f.u64("seed", out.seed))
            return false;

        if (!memoryConfigPreset(out.config)) {
            error = "unknown config \"" + out.config + "\" (" +
                    kMemoryConfigNames + ")";
            return false;
        }
        if (!PageUpgradeOracle::scenarioByName(out.fault)) {
            error = "unknown fault \"" + out.fault + "\" (" +
                    PageUpgradeOracle::kScenarioNames + ")";
            return false;
        }
        if (out.kind == ServiceRequestKind::Mix && !mixByName(out.mix)) {
            error = "unknown mix \"" + out.mix + "\" (Mix1..Mix12)";
            return false;
        }
        if (out.fraction != -1.0 &&
            (out.fraction < 0.0 || out.fraction > 1.0)) {
            error = "\"fraction\" must be in [0, 1] (or -1 = unset)";
            return false;
        }
        if (out.fraction >= 0.0 && out.fault != "none") {
            error = "\"fraction\" and \"fault\" are mutually "
                    "exclusive";
            return false;
        }
        if (out.instrs < 1 || out.instrs > kMaxInstrs) {
            error = "\"instrs\" must be in [1, 2^32]";
            return false;
        }

        if (out.kind == ServiceRequestKind::Trace) {
            const json::Value *paths = doc.find("paths");
            if (!paths ||
                paths->type != json::Value::Type::Array ||
                paths->array.size() != kTraceCores) {
                error = "\"paths\" must be an array of exactly 4 "
                        "trace files (one per core)";
                return false;
            }
            for (const json::Value &p : paths->array) {
                if (p.type != json::Value::Type::String) {
                    error = "\"paths\" entries must be strings";
                    return false;
                }
                std::uint32_t crc = 0;
                if (!fileCrc32c(p.str, crc)) {
                    error = "cannot read trace file \"" + p.str +
                            "\"";
                    return false;
                }
                out.tracePaths.push_back(p.str);
                out.traceCrcs.push_back(crc);
            }
            // Optional client assertion of content identity: when
            // supplied, the CRCs must match what is on disk now --
            // the canonical round-trip, and a client's way of
            // detecting that a file changed under it.
            if (const json::Value *crcs = doc.find("trace_crcs")) {
                if (crcs->type != json::Value::Type::Array ||
                    crcs->array.size() != kTraceCores) {
                    error = "\"trace_crcs\" must be an array of 4 "
                            "integers";
                    return false;
                }
                for (std::size_t i = 0; i < kTraceCores; ++i) {
                    const json::Value &c = crcs->array[i];
                    if (c.type != json::Value::Type::Number ||
                        !c.isUint) {
                        error = "\"trace_crcs\" entries must be "
                                "unsigned integers";
                        return false;
                    }
                    if (c.uintValue != out.traceCrcs[i]) {
                        error = "trace file \"" + out.tracePaths[i] +
                                "\" does not match the supplied "
                                "trace_crcs entry (file changed?)";
                        return false;
                    }
                }
            }
        }
        return true;
    }

    if (kind == "campaign") {
        out.kind = ServiceRequestKind::Campaign;
        if (!onlyKeys(doc, error,
                      {"kind", "channels", "years", "boost", "seed",
                       "scrub_hours", "group_devices", "epoch_trials",
                       "shard_trials"}))
            return false;
        CampaignSpec &spec = out.campaign;
        std::uint64_t group = static_cast<std::uint64_t>(
            spec.devicesPerGroup);
        if (!f.u64("channels", spec.channels) ||
            !f.num("years", spec.years) ||
            !f.num("boost", spec.rateBoost) ||
            !f.u64("seed", spec.seed) ||
            !f.num("scrub_hours", spec.scrubHours) ||
            !f.u64("group_devices", group) ||
            !f.u64("epoch_trials", spec.epochTrials) ||
            !f.u64("shard_trials", spec.shardTrials))
            return false;

        if (spec.channels < 1 || spec.channels > kMaxChannels) {
            error = "\"channels\" must be in [1, 2^22]";
            return false;
        }
        if (!(spec.years > 0.0) || spec.years > 1000.0) {
            error = "\"years\" must be in (0, 1000]";
            return false;
        }
        if (!(spec.rateBoost > 0.0) || spec.rateBoost > 1e9) {
            error = "\"boost\" must be in (0, 1e9]";
            return false;
        }
        if (!(spec.expectedFaultsPerTrial() <=
              CampaignSpec::kMaxExpectedFaultsPerTrial)) {
            error = "\"boost\" x \"years\" asks a channel-lifetime for " +
                    json::number(spec.expectedFaultsPerTrial()) +
                    " faults; the limit is " +
                    json::number(CampaignSpec::kMaxExpectedFaultsPerTrial);
            return false;
        }
        if (!(spec.scrubHours > 0.0) || spec.scrubHours > 1e6) {
            error = "\"scrub_hours\" must be in (0, 1e6]";
            return false;
        }
        const int devices = spec.geom.totalDevices();
        if (group < 1 ||
            group > static_cast<std::uint64_t>(devices) ||
            static_cast<std::uint64_t>(devices) % group != 0) {
            error = "\"group_devices\" must divide the domain's " +
                    std::to_string(devices) + " devices";
            return false;
        }
        spec.devicesPerGroup = static_cast<int>(group);
        if (spec.epochTrials < 1 ||
            spec.epochTrials > kMaxChannels) {
            error = "\"epoch_trials\" must be in [1, 2^22]";
            return false;
        }
        if (spec.shardTrials < 1 ||
            spec.shardTrials > spec.epochTrials) {
            error = "\"shard_trials\" must be in [1, epoch_trials]";
            return false;
        }
        return true;
    }

    error = "unknown kind \"" + kind +
            "\" (mix|trace|campaign|stats|shutdown)";
    return false;
}

std::string
ServiceRequest::canonical() const
{
    std::string out = "{\"kind\":\"";
    out += kindName(kind);
    out += "\"";
    switch (kind) {
      case ServiceRequestKind::Stats:
      case ServiceRequestKind::Shutdown:
        break;
      case ServiceRequestKind::Mix:
      case ServiceRequestKind::Trace:
        out += ",\"config\":" + json::quote(config);
        out += ",\"fault\":" + json::quote(fault);
        out += ",\"fraction\":" + json::number(fraction);
        out += ",\"instrs\":" + std::to_string(instrs);
        if (kind == ServiceRequestKind::Mix)
            out += ",\"mix\":" + json::quote(mix);
        out += std::string(",\"sectored\":") +
               (sectored ? "true" : "false");
        out += ",\"seed\":" + std::to_string(seed);
        if (kind == ServiceRequestKind::Trace) {
            out += ",\"paths\":[";
            for (std::size_t i = 0; i < tracePaths.size(); ++i) {
                if (i)
                    out += ",";
                out += json::quote(tracePaths[i]);
            }
            out += "],\"trace_crcs\":[";
            for (std::size_t i = 0; i < traceCrcs.size(); ++i) {
                if (i)
                    out += ",";
                out += std::to_string(traceCrcs[i]);
            }
            out += "]";
        }
        break;
      case ServiceRequestKind::Campaign:
        out += ",\"boost\":" + json::number(campaign.rateBoost);
        out += ",\"channels\":" + std::to_string(campaign.channels);
        out += ",\"epoch_trials\":" +
               std::to_string(campaign.epochTrials);
        out += ",\"group_devices\":" +
               std::to_string(campaign.devicesPerGroup);
        out += ",\"scrub_hours\":" + json::number(campaign.scrubHours);
        out += ",\"seed\":" + std::to_string(campaign.seed);
        out += ",\"shard_trials\":" +
               std::to_string(campaign.shardTrials);
        out += ",\"years\":" + json::number(campaign.years);
        break;
    }
    out += "}";
    return out;
}

std::uint64_t
ServiceRequest::hash() const
{
    const std::string c = canonical();
    std::uint64_t h = foldU64(0x41524343ULL, c.size()); // "ARCC"
    for (const char ch : c)
        h = foldU64(h, static_cast<std::uint8_t>(ch));
    // Campaign identity also covers everything the spec itself hashes
    // (geometry, FIT rates, sketch shapes) -- the existing
    // configHash() machinery.
    if (kind == ServiceRequestKind::Campaign)
        h = foldU64(h, campaign.configHash());
    return h;
}

std::vector<ServiceRequest>
standardServiceRequests(std::uint64_t instrs,
                        std::uint64_t campaignChannels)
{
    ARCC_ASSERT(instrs >= 1 && campaignChannels >= 1);
    std::vector<ServiceRequest> out;

    // Eight synthetic mixes: Mix1..Mix4 under clean and device-fault
    // ARCC, ...
    for (const char *mix : {"Mix1", "Mix2", "Mix3", "Mix4"}) {
        for (const char *fault : {"none", "device"}) {
            ServiceRequest r;
            r.kind = ServiceRequestKind::Mix;
            r.mix = mix;
            r.fault = fault;
            r.instrs = instrs;
            out.push_back(r);
        }
    }
    // ... the commercial baseline, and a fractional upgrade.
    {
        ServiceRequest r;
        r.kind = ServiceRequestKind::Mix;
        r.config = "baseline";
        r.instrs = instrs;
        out.push_back(r);
        r = ServiceRequest{};
        r.kind = ServiceRequestKind::Mix;
        r.mix = "Mix2";
        r.fraction = 0.25;
        r.instrs = instrs;
        out.push_back(r);
    }
    // Three campaign slices: two seeds and a double-size fleet.
    for (const auto &[channels, seed] :
         std::initializer_list<std::pair<std::uint64_t,
                                         std::uint64_t>>{
             {campaignChannels, 1},
             {campaignChannels, 2},
             {campaignChannels * 2, 1}}) {
        ServiceRequest r;
        r.kind = ServiceRequestKind::Campaign;
        r.campaign.channels = channels;
        r.campaign.seed = seed;
        r.campaign.epochTrials = 128;
        r.campaign.shardTrials = 64;
        out.push_back(r);
    }
    return out;
}

} // namespace arcc
