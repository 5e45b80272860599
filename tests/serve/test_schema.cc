/**
 * @file
 * Submission-schema tests: field round trips, name validation,
 * version gating, and the fingerprint-echo skew check — a
 * submission that decodes into different spec fields than the
 * client encoded must be rejected, never silently run.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "campaign/knobs.hh"
#include "serve/schema.hh"
#include "sim/logging.hh"

namespace
{

using namespace varsim;

serve::Submission
sampleSubmission()
{
    serve::Submission sub;
    sub.tenant = "alice";
    sub.name = "assoc-sweep";
    sub.priority = -3;
    sub.fields.base["cpus"] = "4";
    sub.fields.base["dram"] = "120";
    sub.fields.vary = {"l2-assoc=1,2,4", "prefetch=on,off"};
    sub.fields.workload = "specjbb";
    sub.fields.threadsPerCpu = 2;
    sub.fields.warmupTxns = 7;
    sub.fields.measureTxns = 1000;
    sub.fields.sample = "stratified:200:20:40";
    sub.fields.baseSeed = 4242;
    sub.fields.numCheckpoints = 3;
    sub.fields.checkpointStep = 111;
    sub.fields.strategy = "random";
    sub.fields.fixedRuns = 9;
    sub.fields.relativeError = 0.05;
    sub.fields.alpha = 0.01;
    sub.fingerprintHex = "00c0ffee00c0ffee";
    return sub;
}

TEST(ServeSchema, SubmissionRoundTrips)
{
    const serve::Submission sub = sampleSubmission();
    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeSubmission(sub)));

    serve::Submission got;
    std::string err;
    ASSERT_TRUE(serve::decodeSubmission(obj, got, &err)) << err;
    EXPECT_EQ(got.tenant, "alice");
    EXPECT_EQ(got.name, "assoc-sweep");
    EXPECT_EQ(got.priority, -3);
    EXPECT_EQ(got.fingerprintHex, "00c0ffee00c0ffee");
    EXPECT_EQ(got.fields.base, sub.fields.base);
    EXPECT_EQ(got.fields.vary, sub.fields.vary);
    EXPECT_EQ(got.fields.workload, "specjbb");
    EXPECT_EQ(got.fields.sample, "stratified:200:20:40");
    EXPECT_EQ(got.fields.strategy, "random");
    EXPECT_EQ(got.fields.fixedRuns, 9u);
    EXPECT_DOUBLE_EQ(got.fields.relativeError, 0.05);
    EXPECT_DOUBLE_EQ(got.fields.alpha, 0.01);

    // The real skew detector: both sides' buildSpec agree, so the
    // decoded fields fingerprint identically to the encoded ones.
    campaign::CampaignSpec sent, received;
    ASSERT_TRUE(campaign::buildSpec(sub.fields, sent, &err))
        << err;
    ASSERT_TRUE(campaign::buildSpec(got.fields, received, &err))
        << err;
    EXPECT_EQ(sent.fingerprint(), received.fingerprint());
}

TEST(ServeSchema, DefaultsSurviveARoundTrip)
{
    serve::Submission sub;
    sub.tenant = "t";
    sub.name = "n";
    sub.fingerprintHex = "1";
    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeSubmission(sub)));
    serve::Submission got;
    std::string err;
    ASSERT_TRUE(serve::decodeSubmission(obj, got, &err)) << err;

    const campaign::SpecFields dflt;
    EXPECT_EQ(got.fields.workload, dflt.workload);
    EXPECT_EQ(got.fields.pilotRuns, dflt.pilotRuns);
    EXPECT_EQ(got.fields.maxRuns, dflt.maxRuns);
    EXPECT_DOUBLE_EQ(got.fields.alpha, dflt.alpha);
    EXPECT_DOUBLE_EQ(got.fields.confidence, dflt.confidence);
}

TEST(ServeSchema, UnsupportedVersionIsRejected)
{
    std::string payload =
        serve::encodeSubmission(sampleSubmission());
    const std::string v =
        "\"schema\":" + std::to_string(serve::kSchemaVersion);
    const auto at = payload.find(v);
    ASSERT_NE(at, std::string::npos);
    payload.replace(at, v.size(), "\"schema\":999");

    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(payload));
    serve::Submission got;
    std::string err;
    EXPECT_FALSE(serve::decodeSubmission(obj, got, &err));
    EXPECT_NE(err.find("schema"), std::string::npos);
}

// Submissions journaled before the intra-run engine was removed
// carry its two knobs. At their "off" defaults they decode to the
// same spec; any other value is rejected, naming the field.
TEST(ServeSchema, RetiredEngineFieldsDecodeOnlyAtTheirDefaults)
{
    const serve::Submission sub = sampleSubmission();
    std::string payload = serve::encodeSubmission(sub);
    EXPECT_EQ(payload.find("intra_threads"), std::string::npos);
    EXPECT_EQ(payload.find("lookahead"), std::string::npos);
    payload.pop_back(); // reopen the object to append fields

    const std::pair<const char *, const char *> cases[] = {
        {"", ",\"intra_threads\":0,\"lookahead\":\"-1\"}"},
        {"intra_threads", ",\"intra_threads\":4}"},
        {"intra_threads", ",\"intra_threads\":\"x\"}"},
        {"lookahead", ",\"lookahead\":\"5\"}"},
        {"lookahead", ",\"lookahead\":\"0\"}"},
    };
    for (const auto &[field, extra] : cases) {
        SCOPED_TRACE(extra);
        sim::JsonLine obj;
        ASSERT_TRUE(obj.parse(payload + extra));
        serve::Submission got;
        std::string err;
        const bool ok = serve::decodeSubmission(obj, got, &err);
        EXPECT_EQ(ok, *field == '\0') << err;
        if (!ok) {
            EXPECT_NE(err.find(field), std::string::npos) << err;
            continue;
        }
        campaign::CampaignSpec sent, received;
        ASSERT_TRUE(campaign::buildSpec(sub.fields, sent, &err));
        ASSERT_TRUE(campaign::buildSpec(got.fields, received, &err));
        EXPECT_EQ(sent.fingerprint(), received.fingerprint());
    }
}

/** @p payload with the value of field @p key replaced by @p raw. */
std::string
withField(std::string payload, const std::string &key,
          const std::string &raw)
{
    const std::string tag = "\"" + key + "\":";
    const auto at = payload.find(tag);
    EXPECT_NE(at, std::string::npos) << key;
    const auto from = at + tag.size();
    const auto to = payload[from] == '"'
                        ? payload.find('"', from + 1) + 1
                        : payload.find_first_of(",}", from);
    return payload.replace(from, to - from, raw);
}

// A submission is untrusted input: a number must parse whole, so
// "5abc" is not 5 and "-1" is not 2^64-1. The error names the field.
TEST(ServeSchema, NumbersMustParseWhole)
{
    const std::string payload =
        serve::encodeSubmission(sampleSubmission());
    const std::pair<const char *, const char *> cases[] = {
        {"warmup", "\"5abc\""},     {"checkpoints", "\"-1\""},
        {"seed", "\"\""},           {"max_runs", "1e3"},
        {"priority", "\"2x\""},     {"rel_err", "\"0.05%\""},
        {"schema", "\"1x\""},
    };
    for (const auto &[field, raw] : cases) {
        SCOPED_TRACE(std::string(field) + "=" + raw);
        sim::JsonLine obj;
        ASSERT_TRUE(obj.parse(withField(payload, field, raw)));
        serve::Submission got;
        std::string err;
        EXPECT_FALSE(serve::decodeSubmission(obj, got, &err));
        EXPECT_NE(err.find(std::string("'") + field + "'"),
                  std::string::npos)
            << err;
    }

    // Well-formed numbers still decode, quoted or bare.
    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(withField(payload, "warmup", "\"12\"")));
    serve::Submission got;
    std::string err;
    ASSERT_TRUE(serve::decodeSubmission(obj, got, &err)) << err;
    EXPECT_EQ(got.fields.warmupTxns, 12u);
    EXPECT_EQ(got.priority, -3);
}

// Counts that parse but would size a campaign without bound are
// refused by buildSpec, which the CLI and the daemon share.
TEST(ServeSchema, CampaignSizeLimitsAreEnforced)
{
    const campaign::SpecFields base = sampleSubmission().fields;
    campaign::CampaignSpec spec;
    std::string err;

    campaign::SpecFields f = base;
    f.numCheckpoints = campaign::kMaxCheckpoints;
    EXPECT_TRUE(campaign::buildSpec(f, spec, &err)) << err;
    f.numCheckpoints = campaign::kMaxCheckpoints + 1;
    EXPECT_FALSE(campaign::buildSpec(f, spec, &err));
    EXPECT_NE(err.find("checkpoints"), std::string::npos) << err;

    f = base;
    f.fixedRuns = 0;
    f.maxRuns = campaign::kMaxRunsPerGroup + 1;
    EXPECT_FALSE(campaign::buildSpec(f, spec, &err));
    EXPECT_NE(err.find("max runs"), std::string::npos) << err;

    f = base;
    f.fixedRuns = UINT64_MAX;
    EXPECT_FALSE(campaign::buildSpec(f, spec, &err));
    EXPECT_NE(err.find("fixed runs"), std::string::npos) << err;
}

TEST(ServeSchema, NamesAreValidatedAsPathComponents)
{
    EXPECT_TRUE(serve::validName("alice"));
    EXPECT_TRUE(serve::validName("a1_B-2.c"));
    EXPECT_FALSE(serve::validName(""));
    EXPECT_FALSE(serve::validName(".."));
    EXPECT_FALSE(serve::validName(".hidden"));
    EXPECT_FALSE(serve::validName("a/b"));
    EXPECT_FALSE(serve::validName("a b"));
    EXPECT_FALSE(serve::validName(std::string(65, 'a')));

    serve::Submission sub = sampleSubmission();
    sub.tenant = "../escape";
    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeSubmission(sub)));
    serve::Submission got;
    std::string err;
    EXPECT_FALSE(serve::decodeSubmission(obj, got, &err));
    EXPECT_NE(err.find("tenant"), std::string::npos);
}

TEST(ServeSchema, EventsRoundTrip)
{
    serve::Event ev;
    ev.seq = 17;
    ev.kind = "run";
    ev.campaignId = "alice/assoc-sweep";
    ev.group = 2;
    ev.runIdx = 5;
    ev.value = 10584.25;
    ev.recorded = 11;
    ev.target = 24;

    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeEvent(ev)));
    serve::Event got;
    ASSERT_TRUE(serve::decodeEvent(obj, got));
    EXPECT_EQ(got.seq, 17u);
    EXPECT_EQ(got.kind, "run");
    EXPECT_EQ(got.campaignId, "alice/assoc-sweep");
    EXPECT_EQ(got.group, 2u);
    EXPECT_EQ(got.runIdx, 5u);
    EXPECT_DOUBLE_EQ(got.value, 10584.25);
    EXPECT_EQ(got.recorded, 11u);
    EXPECT_EQ(got.target, 24u);

    serve::Event fail;
    fail.seq = 18;
    fail.kind = "failed";
    fail.campaignId = "alice/assoc-sweep";
    fail.message = "spec fingerprint mismatch";
    ASSERT_TRUE(obj.parse(serve::encodeEvent(fail)));
    ASSERT_TRUE(serve::decodeEvent(obj, got));
    EXPECT_EQ(got.kind, "failed");
    EXPECT_EQ(got.message, "spec fingerprint mismatch");
}

TEST(ServeSchema, CampaignInfoRoundTrips)
{
    serve::CampaignInfo info;
    info.id = "bob/big";
    info.state = "running";
    info.priority = 7;
    info.recorded = 40;
    info.target = 96;
    info.inFlight = 4;

    sim::JsonLine obj;
    ASSERT_TRUE(obj.parse(serve::encodeInfo(info)));
    serve::CampaignInfo got;
    ASSERT_TRUE(serve::decodeInfo(obj, got));
    EXPECT_EQ(got.id, "bob/big");
    EXPECT_EQ(got.state, "running");
    EXPECT_EQ(got.priority, 7);
    EXPECT_EQ(got.recorded, 40u);
    EXPECT_EQ(got.target, 96u);
    EXPECT_EQ(got.inFlight, 4u);
    EXPECT_TRUE(got.error.empty());
}

} // namespace
