#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "io/json_parse.h"
#include "io/report_json.h"

namespace ftl::io {
namespace {

TEST(JsonWriterTest, FlatObject) {
  JsonWriter w;
  w.BeginObject();
  w.Key("a");
  w.Value(int64_t{1});
  w.Key("b");
  w.Value("two");
  w.Key("c");
  w.Value(true);
  w.Key("d");
  w.Null();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":\"two\",\"c\":true,\"d\":null}");
}

TEST(JsonWriterTest, NestedContainers) {
  JsonWriter w;
  w.BeginObject();
  w.Key("xs");
  w.BeginArray();
  w.Value(int64_t{1});
  w.Value(int64_t{2});
  w.BeginObject();
  w.Key("y");
  w.Value(0.5);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"xs\":[1,2,{\"y\":0.5}]}");
}

TEST(JsonWriterTest, EscapesStrings) {
  JsonWriter w;
  w.BeginObject();
  w.Key("weird\"key");
  w.Value("line\nbreak\\slash\ttab");
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"weird\\\"key\":\"line\\nbreak\\\\slash\\ttab\"}");
}

TEST(JsonWriterTest, ControlCharactersEscaped) {
  JsonWriter w;
  w.Value(std::string("a\x01") + "b");
  EXPECT_EQ(w.str(), "\"a\\u0001b\"");
}

// Numbers are written with std::to_chars; they must read exactly as
// snprintf's "%.15g" / "%lld" / "%llu" did, for random bit patterns,
// uniform values, signed zeros, subnormals, infinities, NaNs and the
// integer limits. A string with a quote, a backslash and a control
// character still goes through the escaping path.
TEST(JsonWriterTest, NumbersMatchPrintf) {
  auto printed = [](const char* format, auto v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return std::string(buf);
  };
  auto written = [](auto v) {
    JsonWriter w;
    w.Value(v);
    return w.str();
  };
  std::vector<double> doubles = {
      0.0,
      -0.0,
      1.0,
      -1.5,
      0.1,
      1e15,
      1e16,
      123456789012345678.0,
      1e-5,
      1e-4,
      1e21,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
  };
  std::mt19937_64 rng(20261020);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (int i = 0; i < 20000; ++i) {
    doubles.push_back(std::bit_cast<double>(rng()));
    doubles.push_back(unit(rng));
    doubles.push_back(unit(rng) * 1e6);
  }
  for (double v : doubles) {
    EXPECT_EQ(written(v), printed("%.15g", v))
        << "bits " << std::bit_cast<uint64_t>(v);
  }
  for (int64_t v : {std::numeric_limits<int64_t>::min(), int64_t{-1},
                    int64_t{0}, int64_t{7},
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(written(v), printed("%lld", static_cast<long long>(v)));
  }
  for (uint64_t v : {uint64_t{0}, uint64_t{42},
                     std::numeric_limits<uint64_t>::max()}) {
    EXPECT_EQ(written(v),
              printed("%llu", static_cast<unsigned long long>(v)));
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("label");
  w.Value(std::string("a\"b\\c\x02" "d"));
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"label\":\"a\\\"b\\\\c\\u0002d\"}");
}

TEST(JsonWriterTest, DoublePrecision15Digits) {
  JsonWriter w;
  w.Value(0.12345678901234);  // 14 significant digits survive
  EXPECT_EQ(w.str(), "0.12345678901234");
}

TEST(ReportJsonTest, QueryResult) {
  core::QueryResult r;
  core::MatchCandidate c;
  c.label = "trip-7";
  c.index = 7;
  c.score = 0.75;
  c.p1 = 0.9;
  c.p2 = 1.0 / 6.0;
  c.k_observed = 2;
  c.n_segments = 31;
  r.candidates.push_back(c);
  r.selectiveness = 0.004;
  std::string json = QueryResultToJson("log-3", r);
  EXPECT_NE(json.find("\"query\":\"log-3\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"trip-7\""), std::string::npos);
  EXPECT_NE(json.find("\"score\":0.75"), std::string::npos);
  EXPECT_NE(json.find("\"segments\":31"), std::string::npos);
  EXPECT_NE(json.find("\"selectiveness\":0.004"), std::string::npos);
}

TEST(ReportJsonTest, EmptyResult) {
  core::QueryResult r;
  std::string json = QueryResultToJson("q", r);
  EXPECT_NE(json.find("\"candidates\":[]"), std::string::npos);
}

TEST(ReportJsonTest, Metrics) {
  eval::WorkloadMetrics m;
  m.num_queries = 3;
  m.perceptiveness = 2.0 / 3.0;
  m.selectiveness = 0.01;
  m.mean_candidates = 1.5;
  m.true_match_ranks = {0, -1, 4};
  std::string json = MetricsToJson(m);
  EXPECT_NE(json.find("\"num_queries\":3"), std::string::npos);
  EXPECT_NE(json.find("\"true_match_ranks\":[0,-1,4]"),
            std::string::npos);
}

TEST(ReportJsonTest, Clusters) {
  traj::TrajectoryDatabase a("a"), b("b");
  (void)a.Add(traj::Trajectory("phone-1", 1, {}));
  (void)b.Add(traj::Trajectory("card-1", 1, {}));
  std::vector<core::IdentityCluster> clusters(1);
  clusters[0].members = {{0, 0}, {1, 0}};
  std::string json = ClustersToJson(clusters, {&a, &b});
  EXPECT_NE(json.find("\"label\":\"phone-1\""), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"card-1\""), std::string::npos);
  EXPECT_NE(json.find("\"source\":1"), std::string::npos);
}

// ------------------------------------------------------- JSON parser
// io::ParseJson is the request-body parser for `ftl serve`; these
// round-trip it against the writer and poke the classic edge cases.

TEST(JsonParseTest, ParsesScalars) {
  auto null_v = ParseJson("null");
  ASSERT_TRUE(null_v.ok());
  EXPECT_TRUE(null_v.value().is_null());

  auto true_v = ParseJson(" true ");
  ASSERT_TRUE(true_v.ok());
  EXPECT_TRUE(true_v.value().AsBool());

  auto num = ParseJson("-12.5e2");
  ASSERT_TRUE(num.ok());
  EXPECT_DOUBLE_EQ(num.value().AsDouble(), -1250.0);

  auto str = ParseJson("\"hi\\n\\\"there\\\"\"");
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str.value().AsString(), "hi\n\"there\"");
}

TEST(JsonParseTest, ParsesContainersAndFind) {
  auto r = ParseJson(
      "{\"query\":\"log-3\",\"top\":5,\"candidates\":[\"a\",\"b\"],"
      "\"nested\":{\"x\":true}}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const JsonValue& v = r.value();
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("query")->AsString(), "log-3");
  auto top = v.Find("top")->AsInt64();
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top.value(), 5);
  ASSERT_TRUE(v.Find("candidates")->is_array());
  EXPECT_EQ(v.Find("candidates")->items().size(), 2u);
  EXPECT_EQ(v.Find("candidates")->items()[1].AsString(), "b");
  EXPECT_TRUE(v.Find("nested")->Find("x")->AsBool());
  EXPECT_EQ(v.Find("absent"), nullptr);
}

TEST(JsonParseTest, UnicodeEscapesIncludingSurrogatePairs) {
  auto bmp = ParseJson("\"\\u00e9\"");  // é
  ASSERT_TRUE(bmp.ok());
  EXPECT_EQ(bmp.value().AsString(), "\xc3\xa9");

  auto astral = ParseJson("\"\\ud83d\\ude00\"");  // 😀
  ASSERT_TRUE(astral.ok());
  EXPECT_EQ(astral.value().AsString(), "\xf0\x9f\x98\x80");

  // A lone high surrogate is malformed.
  EXPECT_FALSE(ParseJson("\"\\ud83d\"").ok());
}

TEST(JsonParseTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\" 1}", "tru", "\"unterminated",
        "01", "1.2.3", "{}extra", "{\"a\":1,}", "nan"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << "accepted: " << bad;
  }
}

TEST(JsonParseTest, ReportsByteOffsetInErrors) {
  auto r = ParseJson("{\"a\": nope}");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("byte 6"), std::string::npos)
      << r.status().message();
}

TEST(JsonParseTest, EnforcesDepthLimit) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  JsonParseOptions opts;
  opts.max_depth = 64;
  EXPECT_FALSE(ParseJson(deep, opts).ok());
  opts.max_depth = 128;
  EXPECT_TRUE(ParseJson(deep, opts).ok());
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("query");
  w.Value("log-0");
  w.Key("score");
  w.Value(0.999959335156716);
  w.Key("truncated");
  w.Value(false);
  w.EndObject();
  auto r = ParseJson(w.str());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().Find("query")->AsString(), "log-0");
  EXPECT_DOUBLE_EQ(r.value().Find("score")->AsDouble(), 0.999959335156716);
  EXPECT_FALSE(r.value().Find("truncated")->AsBool());
}

TEST(ReportJsonTest, QueryResultCarriesTruncationMarkers) {
  core::QueryResult result;
  result.selectiveness = 0.25;
  result.truncated = true;
  result.evaluated = 7;
  std::string json = QueryResultToJson("log-1", result);
  EXPECT_NE(json.find("\"truncated\":true"), std::string::npos);
  EXPECT_NE(json.find("\"evaluated\":7"), std::string::npos);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
}

TEST(ReportJsonTest, ClusterWithMissingDbOmitsLabel) {
  std::vector<core::IdentityCluster> clusters(1);
  clusters[0].members = {{0, 5}, {1, 0}};
  traj::TrajectoryDatabase b("b");
  (void)b.Add(traj::Trajectory("card-9", 2, {}));
  // Source 0 db missing; index 5 out of range anyway.
  std::string json = ClustersToJson(clusters, {nullptr, &b});
  EXPECT_EQ(json.find("\"label\":\"phone"), std::string::npos);
  EXPECT_NE(json.find("\"label\":\"card-9\""), std::string::npos);
}

}  // namespace
}  // namespace ftl::io
