#include "serve/schema.hh"

#include <charconv>
#include <cstdlib>
#include <utility>

#include "sim/logging.hh"

namespace varsim
{
namespace serve
{

using sim::JsonLine;
using sim::JsonWriter;

namespace
{

/**
 * Parse field @p key of @p obj whole into @p out, which keeps its
 * value when the field is absent. A submission is untrusted input:
 * "5abc" and "-1" are errors, not 5 and 2^64-1.
 */
template <typename T>
bool
parseField(const JsonLine &obj, const char *key, T &out)
{
    if (!obj.has(key))
        return true;
    const std::string text = obj.str(key);
    const char *end = text.data() + text.size();
    T v{};
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (text.empty() || ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

} // anonymous namespace

bool
validName(const std::string &s)
{
    if (s.empty() || s.size() > 64 || s.front() == '.')
        return false;
    for (char c : s) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' ||
                        c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

std::string
encodeSubmission(const Submission &sub)
{
    const campaign::SpecFields &f = sub.fields;
    JsonWriter w;
    w.field("req", std::string("submit"));
    w.field("schema", static_cast<std::uint64_t>(kSchemaVersion));
    w.field("tenant", sub.tenant);
    w.field("name", sub.name);
    w.field("priority",
            sim::format("%d", sub.priority)); // may be negative
    w.field("fingerprint", sub.fingerprintHex);

    // Base knobs ride as "knob=value" strings: the jsonl dialect
    // has no nested objects, and this is the CLI's own syntax.
    std::vector<std::string> base;
    for (const auto &kv : f.base)
        base.push_back(kv.first + "=" + kv.second);
    w.field("base", base);
    w.field("vary", f.vary);

    w.field("workload", f.workload);
    w.field("wl_seed", f.workloadSeed);
    w.field("tpc", f.threadsPerCpu);
    w.field("warmup", f.warmupTxns);
    w.field("txns", f.measureTxns);
    w.field("sample", f.sample);
    w.field("sample_offset_seed", f.sampleOffsetSeed);
    w.field("seed", f.baseSeed);
    w.field("checkpoints", f.numCheckpoints);
    w.field("ckpt_step", f.checkpointStep);
    w.field("strategy", f.strategy);
    w.field("fixed_runs", f.fixedRuns);
    w.field("pilot_runs", f.pilotRuns);
    w.field("max_runs", f.maxRuns);
    w.field("rel_err", f.relativeError);
    w.field("alpha", f.alpha);
    w.field("confidence", f.confidence);
    w.field("budget", f.budgetTxns);
    return w.str();
}

bool
decodeSubmission(const JsonLine &obj, Submission &out,
                 std::string *err)
{
    auto fail = [&](std::string msg) {
        if (err)
            *err = std::move(msg);
        return false;
    };

    auto badNumber = [&](const char *key) {
        return fail(sim::format("field '%s' is not a number: '%s'",
                                key, obj.str(key).c_str()));
    };

    std::uint64_t schema = 0;
    if (!parseField(obj, "schema", schema))
        return badNumber("schema");
    if (schema != static_cast<std::uint64_t>(kSchemaVersion))
        return fail(sim::format(
            "unsupported submission schema %llu (this daemon "
            "speaks %d); rebuild the client",
            static_cast<unsigned long long>(schema),
            kSchemaVersion));

    out.tenant = obj.str("tenant");
    out.name = obj.str("name");
    if (!validName(out.tenant))
        return fail("bad tenant name '" + out.tenant +
                    "' (want [A-Za-z0-9_.-]{1,64}, no leading "
                    "dot)");
    if (!validName(out.name))
        return fail("bad campaign name '" + out.name +
                    "' (want [A-Za-z0-9_.-]{1,64}, no leading "
                    "dot)");
    out.priority = 0;
    if (!parseField(obj, "priority", out.priority))
        return badNumber("priority");
    out.fingerprintHex = obj.str("fingerprint");
    if (out.fingerprintHex.empty())
        return fail("submission carries no spec fingerprint");

    // Knobs of the retired intra-run engine. Older clients (and
    // journaled submissions) send them at their defaults, which mean
    // "off"; any other value asks for something no longer there.
    for (const auto &[key, off] : {std::pair{"intra_threads", "0"},
                                   std::pair{"lookahead", "-1"}}) {
        if (obj.has(key) && obj.str(key) != off)
            return fail(sim::format(
                "field '%s' is no longer supported (intra-run "
                "parallelism was removed; only '%s' is accepted)",
                key, off));
    }

    campaign::SpecFields f;
    for (const std::string &kv : obj.list("base")) {
        const auto eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail("bad base knob '" + kv +
                        "' (want knob=value)");
        f.base[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    f.vary = obj.list("vary");
    f.workload = obj.str("workload", f.workload);
    f.sample = obj.str("sample", f.sample);
    f.strategy = obj.str("strategy", f.strategy);
    for (const auto &[key, dst] :
         {std::pair{"wl_seed", &f.workloadSeed},
          std::pair{"tpc", &f.threadsPerCpu},
          std::pair{"warmup", &f.warmupTxns},
          std::pair{"txns", &f.measureTxns},
          std::pair{"sample_offset_seed", &f.sampleOffsetSeed},
          std::pair{"seed", &f.baseSeed},
          std::pair{"checkpoints", &f.numCheckpoints},
          std::pair{"ckpt_step", &f.checkpointStep},
          std::pair{"fixed_runs", &f.fixedRuns},
          std::pair{"pilot_runs", &f.pilotRuns},
          std::pair{"max_runs", &f.maxRuns},
          std::pair{"budget", &f.budgetTxns}}) {
        if (!parseField(obj, key, *dst))
            return badNumber(key);
    }
    for (const auto &[key, dst] :
         {std::pair{"rel_err", &f.relativeError},
          std::pair{"alpha", &f.alpha},
          std::pair{"confidence", &f.confidence}}) {
        if (!parseField(obj, key, *dst))
            return badNumber(key);
    }
    out.fields = std::move(f);
    return true;
}

std::string
encodeEvent(const Event &ev)
{
    JsonWriter w;
    w.field("type", std::string("event"));
    w.field("seq", ev.seq);
    w.field("kind", ev.kind);
    w.field("campaign", ev.campaignId);
    if (ev.kind == "run") {
        w.field("group", ev.group);
        w.field("run", ev.runIdx);
        w.field("value", ev.value);
    }
    if (ev.kind == "run" || ev.kind == "round") {
        w.field("recorded", ev.recorded);
        w.field("target", ev.target);
    }
    if (!ev.message.empty())
        w.field("message", ev.message);
    return w.str();
}

bool
decodeEvent(const JsonLine &obj, Event &out)
{
    if (obj.str("type") != "event")
        return false;
    out.seq = obj.num("seq");
    out.kind = obj.str("kind");
    out.campaignId = obj.str("campaign");
    out.group = obj.num("group");
    out.runIdx = obj.num("run");
    out.value = obj.real("value");
    out.recorded = obj.num("recorded");
    out.target = obj.num("target");
    out.message = obj.str("message");
    return !out.kind.empty();
}

std::string
encodeInfo(const CampaignInfo &info)
{
    JsonWriter w;
    w.field("type", std::string("campaign"));
    w.field("id", info.id);
    w.field("state", info.state);
    w.field("priority", sim::format("%d", info.priority));
    w.field("recorded", info.recorded);
    w.field("target", info.target);
    w.field("in_flight", info.inFlight);
    if (!info.error.empty())
        w.field("error", info.error);
    return w.str();
}

bool
decodeInfo(const JsonLine &obj, CampaignInfo &out)
{
    if (obj.str("type") != "campaign")
        return false;
    out.id = obj.str("id");
    out.state = obj.str("state");
    out.priority = static_cast<int>(
        std::strtol(obj.str("priority", "0").c_str(), nullptr,
                    10));
    out.recorded = obj.num("recorded");
    out.target = obj.num("target");
    out.inFlight = obj.num("in_flight");
    out.error = obj.str("error");
    return !out.id.empty();
}

} // namespace serve
} // namespace varsim
