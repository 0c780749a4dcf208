#include "sim/check/experiment_json.hh"

#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "common/json.hh"

namespace hsipc::sim::check
{

namespace
{

/**
 * Render a double with enough digits to round-trip exactly through
 * strtod (%.12g, the measurement form, is deliberately lossy).
 */
std::string
exactNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
numberField(const JsonValue &v, const char *key)
{
    const JsonValue &f = v.at(key);
    if (f.kind() != JsonValue::Kind::Number)
        throw std::runtime_error(std::string("experiment field '") +
                                 key + "' must be a number");
    return f.asNumber();
}

int
intField(const JsonValue &v, const char *key)
{
    const double d = numberField(v, key);
    const int i = static_cast<int>(d);
    if (static_cast<double>(i) != d)
        throw std::runtime_error(std::string("experiment field '") +
                                 key + "' must be an integer");
    return i;
}

bool
boolField(const JsonValue &v, const char *key)
{
    const JsonValue &f = v.at(key);
    if (f.kind() != JsonValue::Kind::Bool)
        throw std::runtime_error(std::string("experiment field '") +
                                 key + "' must be a boolean");
    return f.asBool();
}

std::string
stringField(const JsonValue &v, const char *key)
{
    const JsonValue &f = v.at(key);
    if (f.kind() != JsonValue::Kind::String)
        throw std::runtime_error(std::string("experiment field '") +
                                 key + "' must be a string");
    return f.asString();
}

} // namespace

std::string
experimentToJson(const Experiment &exp)
{
    std::string doc = "{";
    bool first = true;
    auto field = [&](const char *name, const std::string &rendered) {
        doc += std::string(first ? "" : ",") + "\n  \"" + name +
               "\": " + rendered;
        first = false;
    };
    auto num = [&](const char *name, double v) {
        field(name, exactNumber(v));
    };
    auto integer = [&](const char *name, long v) {
        field(name, std::to_string(v));
    };
    auto boolean = [&](const char *name, bool v) {
        field(name, v ? "true" : "false");
    };

    integer("arch", static_cast<long>(exp.arch));
    boolean("local", exp.local);
    integer("conversations", exp.conversations);
    integer("mixedLocal", exp.mixedLocal);
    integer("mixedRemote", exp.mixedRemote);
    num("computeUs", exp.computeUs);
    integer("hostsPerNode", exp.hostsPerNode);
    boolean("extraCopy", exp.extraCopy);
    num("mpSpeedFactor", exp.mpSpeedFactor);
    integer("kernelBuffers", exp.kernelBuffers);
    integer("packetBytes", exp.packetBytes);
    num("warmupUs", exp.warmupUs);
    num("measureUs", exp.measureUs);
    // The seed is a full 64-bit value; a JSON number (double) only
    // holds 53 bits exactly, so it travels as a decimal string.
    field("seed", jsonString(std::to_string(exp.seed)));
    num("lossRate", exp.lossRate);
    num("corruptRate", exp.corruptRate);
    num("duplicateRate", exp.duplicateRate);
    num("reorderRate", exp.reorderRate);
    num("reorderDelayUs", exp.reorderDelayUs);
    num("retransmitTimeoutUs", exp.retransmitTimeoutUs);
    integer("retransmitWindow", exp.retransmitWindow);
    boolean("reliableProtocol", exp.reliableProtocol);
    std::string crashes = "[";
    for (std::size_t i = 0; i < exp.crashSchedule.size(); ++i) {
        const CrashWindow &w = exp.crashSchedule[i];
        crashes += std::string(i ? ", " : "") + "{\"node\": " +
                   std::to_string(w.node) + ", \"startUs\": " +
                   exactNumber(w.startUs) + ", \"endUs\": " +
                   exactNumber(w.endUs) + "}";
    }
    field("crashSchedule", crashes + "]");
    field("traceFile", jsonString(exp.traceFile));
    field("metricsFile", jsonString(exp.metricsFile));
    boolean("decomposeLatency", exp.decomposeLatency);
    integer("arrivalMode", exp.arrivalMode);
    num("arrivalRatePerSec", exp.arrivalRatePerSec);
    num("paretoAlpha", exp.paretoAlpha);
    num("paretoBound", exp.paretoBound);
    num("deadlineUs", exp.deadlineUs);
    integer("retryBudget", exp.retryBudget);
    num("retryBackoffUs", exp.retryBackoffUs);
    num("retryBackoffMaxUs", exp.retryBackoffMaxUs);
    integer("svcQueueCap", exp.svcQueueCap);
    integer("shedPolicy", exp.shedPolicy);
    num("rtoMaxUs", exp.rtoMaxUs);
    num("timelineIntervalUs", exp.timelineIntervalUs);
    field("timelineFile", jsonString(exp.timelineFile));
    num("traceSampleRate", exp.traceSampleRate);
    boolean("engineProfile", exp.engineProfile);
    field("engineProfileFile", jsonString(exp.engineProfileFile));
    // The topology object appears only when configured, so every
    // pre-topology document (and its golden bytes) is unchanged.
    if (!(exp.topo == topo::Topology{})) {
        std::string t =
            "{\"nodes\": " + std::to_string(exp.topo.nodes) +
            ", \"kind\": " + std::to_string(exp.topo.kind) +
            ", \"linkLatencyUs\": " +
            exactNumber(exp.topo.linkLatencyUs) +
            ", \"linkMbps\": " + exactNumber(exp.topo.linkMbps) +
            ", \"switchLatencyUs\": " +
            exactNumber(exp.topo.switchLatencyUs) +
            ", \"segments\": " + std::to_string(exp.topo.segments) +
            ", \"segMbps\": " + exactNumber(exp.topo.segMbps) +
            ", \"placement\": " + std::to_string(exp.topo.placement) +
            ", \"zipfSkew\": " + exactNumber(exp.topo.zipfSkew) +
            ", \"links\": [";
        for (std::size_t i = 0; i < exp.topo.links.size(); ++i) {
            const topo::TopoLink &l = exp.topo.links[i];
            t += std::string(i ? ", " : "") + "{\"a\": " +
                 std::to_string(l.a) + ", \"b\": " +
                 std::to_string(l.b) + ", \"latencyUs\": " +
                 exactNumber(l.latencyUs) + ", \"mbps\": " +
                 exactNumber(l.mbps) + "}";
        }
        field("topology", t + "]}");
    }
    return doc + "\n}\n";
}

Experiment
experimentFromJson(const JsonValue &v)
{
    if (!v.isObject())
        throw std::runtime_error(
            "experiment document must be a JSON object");

    static const std::set<std::string> known = {
        "arch", "local", "conversations", "mixedLocal", "mixedRemote",
        "computeUs", "hostsPerNode", "extraCopy", "mpSpeedFactor",
        "kernelBuffers", "packetBytes", "warmupUs", "measureUs",
        "seed", "lossRate", "corruptRate", "duplicateRate",
        "reorderRate",
        "reorderDelayUs", "retransmitTimeoutUs", "retransmitWindow",
        "reliableProtocol", "crashSchedule", "traceFile",
        "metricsFile", "decomposeLatency", "arrivalMode",
        "arrivalRatePerSec", "paretoAlpha", "paretoBound",
        "deadlineUs", "retryBudget", "retryBackoffUs",
        "retryBackoffMaxUs", "svcQueueCap", "shedPolicy", "rtoMaxUs",
        "timelineIntervalUs", "timelineFile", "traceSampleRate",
        "engineProfile", "engineProfileFile", "topology"};
    for (const auto &[key, value] : v.asObject()) {
        if (known.count(key) == 0)
            throw std::runtime_error(
                "unknown experiment field '" + key + "'");
    }

    Experiment exp;
    if (v.has("arch")) {
        const int a = intField(v, "arch");
        if (a < 1 || a > 4)
            throw std::runtime_error(
                "experiment field 'arch' must be 1..4");
        exp.arch = static_cast<models::Arch>(a);
    }
    if (v.has("local"))
        exp.local = boolField(v, "local");
    if (v.has("conversations"))
        exp.conversations = intField(v, "conversations");
    if (v.has("mixedLocal"))
        exp.mixedLocal = intField(v, "mixedLocal");
    if (v.has("mixedRemote"))
        exp.mixedRemote = intField(v, "mixedRemote");
    if (v.has("computeUs"))
        exp.computeUs = numberField(v, "computeUs");
    if (v.has("hostsPerNode"))
        exp.hostsPerNode = intField(v, "hostsPerNode");
    if (v.has("extraCopy"))
        exp.extraCopy = boolField(v, "extraCopy");
    if (v.has("mpSpeedFactor"))
        exp.mpSpeedFactor = numberField(v, "mpSpeedFactor");
    if (v.has("kernelBuffers"))
        exp.kernelBuffers = intField(v, "kernelBuffers");
    if (v.has("packetBytes"))
        exp.packetBytes = intField(v, "packetBytes");
    if (v.has("warmupUs"))
        exp.warmupUs = numberField(v, "warmupUs");
    if (v.has("measureUs"))
        exp.measureUs = numberField(v, "measureUs");
    if (v.has("seed")) {
        const std::string s = stringField(v, "seed");
        char *end = nullptr;
        exp.seed = std::strtoull(s.c_str(), &end, 10);
        if (end == s.c_str() || *end != '\0')
            throw std::runtime_error(
                "experiment field 'seed' must be a decimal string");
    }
    if (v.has("lossRate"))
        exp.lossRate = numberField(v, "lossRate");
    if (v.has("corruptRate"))
        exp.corruptRate = numberField(v, "corruptRate");
    if (v.has("duplicateRate"))
        exp.duplicateRate = numberField(v, "duplicateRate");
    if (v.has("reorderRate"))
        exp.reorderRate = numberField(v, "reorderRate");
    if (v.has("reorderDelayUs"))
        exp.reorderDelayUs = numberField(v, "reorderDelayUs");
    if (v.has("retransmitTimeoutUs"))
        exp.retransmitTimeoutUs = numberField(v, "retransmitTimeoutUs");
    if (v.has("retransmitWindow"))
        exp.retransmitWindow = intField(v, "retransmitWindow");
    if (v.has("reliableProtocol"))
        exp.reliableProtocol = boolField(v, "reliableProtocol");
    if (v.has("crashSchedule")) {
        for (const JsonValue &wv : v.at("crashSchedule").asArray()) {
            CrashWindow w;
            w.node = intField(wv, "node");
            w.startUs = numberField(wv, "startUs");
            w.endUs = numberField(wv, "endUs");
            exp.crashSchedule.push_back(w);
        }
    }
    if (v.has("traceFile"))
        exp.traceFile = stringField(v, "traceFile");
    if (v.has("metricsFile"))
        exp.metricsFile = stringField(v, "metricsFile");
    if (v.has("decomposeLatency"))
        exp.decomposeLatency = boolField(v, "decomposeLatency");
    if (v.has("arrivalMode"))
        exp.arrivalMode = intField(v, "arrivalMode");
    if (v.has("arrivalRatePerSec"))
        exp.arrivalRatePerSec = numberField(v, "arrivalRatePerSec");
    if (v.has("paretoAlpha"))
        exp.paretoAlpha = numberField(v, "paretoAlpha");
    if (v.has("paretoBound"))
        exp.paretoBound = numberField(v, "paretoBound");
    if (v.has("deadlineUs"))
        exp.deadlineUs = numberField(v, "deadlineUs");
    if (v.has("retryBudget"))
        exp.retryBudget = intField(v, "retryBudget");
    if (v.has("retryBackoffUs"))
        exp.retryBackoffUs = numberField(v, "retryBackoffUs");
    if (v.has("retryBackoffMaxUs"))
        exp.retryBackoffMaxUs = numberField(v, "retryBackoffMaxUs");
    if (v.has("svcQueueCap"))
        exp.svcQueueCap = intField(v, "svcQueueCap");
    if (v.has("shedPolicy"))
        exp.shedPolicy = intField(v, "shedPolicy");
    if (v.has("rtoMaxUs"))
        exp.rtoMaxUs = numberField(v, "rtoMaxUs");
    if (v.has("timelineIntervalUs"))
        exp.timelineIntervalUs = numberField(v, "timelineIntervalUs");
    if (v.has("timelineFile"))
        exp.timelineFile = stringField(v, "timelineFile");
    if (v.has("traceSampleRate"))
        exp.traceSampleRate = numberField(v, "traceSampleRate");
    if (v.has("engineProfile"))
        exp.engineProfile = boolField(v, "engineProfile");
    if (v.has("engineProfileFile"))
        exp.engineProfileFile = stringField(v, "engineProfileFile");
    if (v.has("topology")) {
        const JsonValue &tv = v.at("topology");
        if (!tv.isObject())
            throw std::runtime_error(
                "experiment field 'topology' must be an object");
        static const std::set<std::string> topoKnown = {
            "nodes",    "kind",    "linkLatencyUs",
            "linkMbps", "switchLatencyUs", "segments",
            "segMbps",  "placement", "zipfSkew", "links"};
        for (const auto &[key, value] : tv.asObject()) {
            if (topoKnown.count(key) == 0)
                throw std::runtime_error(
                    "unknown topology field '" + key + "'");
        }
        if (tv.has("nodes"))
            exp.topo.nodes = intField(tv, "nodes");
        if (tv.has("kind"))
            exp.topo.kind = intField(tv, "kind");
        if (tv.has("linkLatencyUs"))
            exp.topo.linkLatencyUs = numberField(tv, "linkLatencyUs");
        if (tv.has("linkMbps"))
            exp.topo.linkMbps = numberField(tv, "linkMbps");
        if (tv.has("switchLatencyUs"))
            exp.topo.switchLatencyUs =
                numberField(tv, "switchLatencyUs");
        if (tv.has("segments"))
            exp.topo.segments = intField(tv, "segments");
        if (tv.has("segMbps"))
            exp.topo.segMbps = numberField(tv, "segMbps");
        if (tv.has("placement"))
            exp.topo.placement = intField(tv, "placement");
        if (tv.has("zipfSkew"))
            exp.topo.zipfSkew = numberField(tv, "zipfSkew");
        if (tv.has("links")) {
            for (const JsonValue &lv : tv.at("links").asArray()) {
                if (!lv.isObject())
                    throw std::runtime_error(
                        "topology link entries must be objects");
                static const std::set<std::string> linkKnown = {
                    "a", "b", "latencyUs", "mbps"};
                for (const auto &[key, value] : lv.asObject()) {
                    if (linkKnown.count(key) == 0)
                        throw std::runtime_error(
                            "unknown topology link field '" + key +
                            "'");
                }
                if (!lv.has("a") || !lv.has("b"))
                    throw std::runtime_error(
                        "topology link entries need both "
                        "'a' and 'b'");
                topo::TopoLink l;
                l.a = intField(lv, "a");
                l.b = intField(lv, "b");
                if (lv.has("latencyUs"))
                    l.latencyUs = numberField(lv, "latencyUs");
                if (lv.has("mbps"))
                    l.mbps = numberField(lv, "mbps");
                exp.topo.links.push_back(l);
            }
        }
    }
    return exp;
}

Experiment
experimentFromJsonText(const std::string &text)
{
    return experimentFromJson(parseJson(text));
}

} // namespace hsipc::sim::check
