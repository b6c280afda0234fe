// adiv_traceview --contention: pinned fixtures for the profiling-stream
// analyzer — stage aggregation in pipeline order, wait-site aggregation
// across sweep points, dominant-site selection, and both renderings.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/traceview.hpp"

namespace adiv {
namespace {

// Two sampled events, one idle site, one contention site reported by two
// sweep points, one foreign line (passes), one malformed line (skipped).
const char kFixture[] =
    "{\"type\":\"manifest\",\"tool\":\"adiv_serve\"}\n"
    "{\"type\":\"event_stage\",\"seq\":0,\"verb\":\"PUSH\",\"session\":1,"
    "\"events\":4,\"scores\":3,\"outcome\":\"ok\","
    "\"recv_wait_us\":1,\"recv_read_us\":1,"
    "\"parse_us\":2,\"queue_us\":3,\"score_us\":10,\"reply_us\":4,"
    "\"total_us\":25}\n"
    "{\"type\":\"event_stage\",\"seq\":8,\"verb\":\"PUSH\",\"session\":1,"
    "\"events\":4,\"scores\":4,\"outcome\":\"ok\","
    "\"recv_wait_us\":3,\"recv_read_us\":2,"
    "\"parse_us\":2,\"queue_us\":5,\"score_us\":20,\"reply_us\":6,"
    "\"total_us\":40}\n"
    "{\"type\":\"wait_site\",\"site\":\"serve.pool.dequeue_wait\","
    "\"kind\":\"idle\",\"acquires\":50,\"contended\":40,"
    "\"wait_us_total\":5000,\"wait_us_mean\":125,\"wait_us_p95\":300,"
    "\"wait_us_max\":400}\n"
    "{\"type\":\"wait_site\",\"site\":\"serve.shard.table\","
    "\"kind\":\"contention\",\"acquires\":10,\"contended\":2,"
    "\"wait_us_total\":100,\"wait_us_mean\":50,\"wait_us_p95\":80,"
    "\"wait_us_max\":90}\n"
    "{\"type\":\"wait_site\",\"site\":\"serve.shard.table\","
    "\"kind\":\"contention\",\"acquires\":6,\"contended\":2,"
    "\"wait_us_total\":60,\"wait_us_mean\":30,\"wait_us_p95\":100,"
    "\"wait_us_max\":110}\n"
    "not json\n";

TEST(Contention, AggregatesStagesInPipelineOrder) {
    std::istringstream in(kFixture);
    const ContentionAnalysis analysis = analyze_contention(in);
    EXPECT_EQ(analysis.events, 2u);
    EXPECT_EQ(analysis.lines, 7u);
    EXPECT_EQ(analysis.skipped, 1u);
    ASSERT_EQ(analysis.stages.size(), 7u);
    const char* expected_order[] = {"recv_wait", "recv_read", "parse", "queue",
                                    "score",     "reply",     "total"};
    for (std::size_t i = 0; i < 7; ++i)
        EXPECT_EQ(analysis.stages[i].stage, expected_order[i]);
    const StageBreakdown& recv_wait = analysis.stages[0];
    EXPECT_EQ(recv_wait.count, 2u);
    EXPECT_DOUBLE_EQ(recv_wait.total_us, 4.0);
    EXPECT_DOUBLE_EQ(recv_wait.mean_us, 2.0);
    EXPECT_DOUBLE_EQ(recv_wait.p50_us, 1.0);  // nearest rank over {1, 3}
    EXPECT_DOUBLE_EQ(recv_wait.p95_us, 3.0);
    EXPECT_DOUBLE_EQ(recv_wait.max_us, 3.0);
    const StageBreakdown& recv_read = analysis.stages[1];
    EXPECT_EQ(recv_read.count, 2u);
    EXPECT_DOUBLE_EQ(recv_read.total_us, 3.0);
    EXPECT_DOUBLE_EQ(recv_read.mean_us, 1.5);
    const StageBreakdown& total = analysis.stages[6];
    EXPECT_DOUBLE_EQ(total.total_us, 65.0);
    EXPECT_DOUBLE_EQ(total.mean_us, 32.5);
}

TEST(Contention, AggregatesWaitSitesAcrossSweepPoints) {
    std::istringstream in(kFixture);
    const ContentionAnalysis analysis = analyze_contention(in);
    ASSERT_EQ(analysis.sites.size(), 2u);
    // Sorted by total wait, descending: the idle pool waits longest.
    EXPECT_EQ(analysis.sites[0].site, "serve.pool.dequeue_wait");
    EXPECT_EQ(analysis.sites[0].kind, "idle");
    // The two sweep-point lines for the table lock merge: counts sum, tail
    // statistics keep the worst point, the mean is recomputed.
    const ContentionSite& table = analysis.sites[1];
    EXPECT_EQ(table.site, "serve.shard.table");
    EXPECT_EQ(table.acquires, 16u);
    EXPECT_EQ(table.contended, 4u);
    EXPECT_DOUBLE_EQ(table.wait_us_total, 160.0);
    EXPECT_DOUBLE_EQ(table.wait_us_mean, 40.0);
    EXPECT_DOUBLE_EQ(table.wait_us_p95, 100.0);
    EXPECT_DOUBLE_EQ(table.wait_us_max, 110.0);
    // The idle site out-waits everything but cannot be dominant.
    EXPECT_EQ(analysis.dominant_site, "serve.shard.table");
}

TEST(Contention, NonIntegerCountsSkipTheLine) {
    // Counts are the writer's uint64s; one beyond that range, negative or
    // fractional is a malformed line, never a wrapped or truncated count.
    std::string text;
    for (const char* acquires : {"1e20", "-1", "2.5", "3"})
        text += std::string("{\"type\":\"wait_site\",\"site\":\"s\",") +
                "\"kind\":\"contention\",\"acquires\":" + acquires +
                ",\"contended\":1,\"wait_us_total\":10}\n";
    std::istringstream in(text);
    const ContentionAnalysis analysis = analyze_contention(in);
    EXPECT_EQ(analysis.skipped, 3u);
    ASSERT_EQ(analysis.sites.size(), 1u);
    EXPECT_EQ(analysis.sites[0].acquires, 3u);
    EXPECT_EQ(analysis.sites[0].contended, 1u);
}

TEST(Contention, IdleOnlyTrafficNamesNoDominantSite) {
    std::istringstream in(
        "{\"type\":\"wait_site\",\"site\":\"serve.pool.dequeue_wait\","
        "\"kind\":\"idle\",\"acquires\":5,\"contended\":5,"
        "\"wait_us_total\":900,\"wait_us_mean\":180,\"wait_us_p95\":300,"
        "\"wait_us_max\":400}\n");
    const ContentionAnalysis analysis = analyze_contention(in);
    EXPECT_TRUE(analysis.dominant_site.empty());
    const std::string rendered = render_contention(analysis);
    EXPECT_NE(rendered.find("dominant wait site: (none contended)"),
              std::string::npos);
}

TEST(Contention, RenderNamesTheDominantSite) {
    std::istringstream in(kFixture);
    const std::string rendered = render_contention(analyze_contention(in));
    EXPECT_NE(rendered.find("stage breakdown (2 sampled events):"),
              std::string::npos);
    EXPECT_NE(rendered.find("wait sites (by total wait):"), std::string::npos);
    EXPECT_NE(rendered.find("dominant wait site: serve.shard.table"),
              std::string::npos);
    EXPECT_NE(rendered.find("(1 of 7 lines skipped as malformed)"),
              std::string::npos);
}

TEST(Contention, EmptyStreamRendersPlaceholders) {
    std::istringstream in("");
    EXPECT_EQ(render_contention(analyze_contention(in)),
              "(no event_stage lines in trace)\n"
              "\n"
              "(no wait_site lines in trace)\n");
}

TEST(Contention, JsonDocumentIsByteExact) {
    std::istringstream in(kFixture);
    EXPECT_EQ(
        contention_to_json(analyze_contention(in)),
        "{\"events\":2,\"stages\":["
        "{\"stage\":\"recv_wait\",\"count\":2,\"total_us\":4,\"mean_us\":2,"
        "\"p50_us\":1,\"p95_us\":3,\"p99_us\":3,\"max_us\":3},"
        "{\"stage\":\"recv_read\",\"count\":2,\"total_us\":3,\"mean_us\":1.5,"
        "\"p50_us\":1,\"p95_us\":2,\"p99_us\":2,\"max_us\":2},"
        "{\"stage\":\"parse\",\"count\":2,\"total_us\":4,\"mean_us\":2,"
        "\"p50_us\":2,\"p95_us\":2,\"p99_us\":2,\"max_us\":2},"
        "{\"stage\":\"queue\",\"count\":2,\"total_us\":8,\"mean_us\":4,"
        "\"p50_us\":3,\"p95_us\":5,\"p99_us\":5,\"max_us\":5},"
        "{\"stage\":\"score\",\"count\":2,\"total_us\":30,\"mean_us\":15,"
        "\"p50_us\":10,\"p95_us\":20,\"p99_us\":20,\"max_us\":20},"
        "{\"stage\":\"reply\",\"count\":2,\"total_us\":10,\"mean_us\":5,"
        "\"p50_us\":4,\"p95_us\":6,\"p99_us\":6,\"max_us\":6},"
        "{\"stage\":\"total\",\"count\":2,\"total_us\":65,\"mean_us\":32.5,"
        "\"p50_us\":25,\"p95_us\":40,\"p99_us\":40,\"max_us\":40}],"
        "\"wait_sites\":["
        "{\"site\":\"serve.pool.dequeue_wait\",\"kind\":\"idle\","
        "\"acquires\":50,\"contended\":40,\"wait_us_total\":5000,"
        "\"wait_us_mean\":125,\"wait_us_p95\":300,\"wait_us_max\":400},"
        "{\"site\":\"serve.shard.table\",\"kind\":\"contention\","
        "\"acquires\":16,\"contended\":4,\"wait_us_total\":160,"
        "\"wait_us_mean\":40,\"wait_us_p95\":100,\"wait_us_max\":110}],"
        "\"dominant_wait_site\":\"serve.shard.table\","
        "\"lines\":7,\"skipped\":1}");
}

}  // namespace
}  // namespace adiv
