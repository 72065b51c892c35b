#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/backoff.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/json_util.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace tg {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "hello");
}

// --- Rng ---

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.NextBelow(17), 17u);
}

TEST(RngTest, NextBelowIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextBelow(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, 500);  // ~5 sigma for binomial(1e5, 0.1)
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double v = rng.NextGaussian();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = rng.SampleWithoutReplacement(30, 10);
    std::set<size_t> distinct(sample.begin(), sample.end());
    EXPECT_EQ(distinct.size(), 10u);
    for (size_t v : sample) EXPECT_LT(v, 30u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = values;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(21);
  Rng fork1 = a.Fork(5);
  Rng fork2 = Rng(21).Fork(5);
  EXPECT_EQ(fork1.NextUint64(), fork2.NextUint64());
  Rng other = Rng(21).Fork(6);
  EXPECT_NE(Rng(21).Fork(5).NextUint64(), other.NextUint64());
}

// --- String utilities ---

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtilTest, SplitPreservesEmptyFields) {
  auto parts = Split(",x,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, JoinRoundTrip) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, "-"), "x-y-z");
  EXPECT_EQ(Join({}, "-"), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("TG:LR,N2V", "TG:"));
  EXPECT_FALSE(StartsWith("LR", "TG:"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("a", "ab"));
}

// --- CSV writer ---

TEST(CsvTest, WritesAndEscapes) {
  const std::string path = ::testing::TempDir() + "/tg_csv_test.csv";
  {
    CsvWriter writer(path);
    ASSERT_TRUE(writer.ok());
    writer.WriteRow({"name", "value"});
    writer.WriteRow({"has,comma", "has\"quote"});
    EXPECT_TRUE(writer.Close().ok());
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buffer[256];
  std::string content;
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(f);
  EXPECT_NE(content.find("name,value\n"), std::string::npos);
  EXPECT_NE(content.find("\"has,comma\",\"has\"\"quote\"\n"),
            std::string::npos);
}

// --- Table printer ---

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"method", "pearson"});
  table.AddRow({"LogME", "0.50"});
  table.AddRow({"TG:XGB,N2V,all", "0.77"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("TG:XGB,N2V,all  0.77"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("------"), std::string::npos);
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter table({"a", "b", "c"});
  table.AddRow({"1"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("1"), std::string::npos);
}

TEST(StringUtilTest, EndsWith) {
  EXPECT_TRUE(EndsWith("stage.x.seconds", ".seconds"));
  EXPECT_TRUE(EndsWith("abc", ""));
  EXPECT_FALSE(EndsWith("abc", "abcd"));
  EXPECT_FALSE(EndsWith("stage.x.alloc_bytes", ".seconds"));
}

TEST(JsonValueTest, ParsesScalarsArraysAndObjects) {
  Result<JsonValue> parsed = JsonValue::Parse(
      R"({"name": "tg", "count": 3, "ratio": -1.5e2, "on": true,)"
      R"( "off": false, "nil": null, "list": [1, 2, 3]})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& doc = parsed.value();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.Find("name")->AsString(), "tg");
  EXPECT_DOUBLE_EQ(doc.Find("count")->AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(doc.Find("ratio")->AsDouble(), -150.0);
  EXPECT_TRUE(doc.Find("on")->AsBool());
  EXPECT_FALSE(doc.Find("off")->AsBool());
  EXPECT_TRUE(doc.Find("nil")->is_null());
  EXPECT_EQ(doc.Find("missing"), nullptr);
  const JsonValue* list = doc.Find("list");
  ASSERT_TRUE(list->is_array());
  ASSERT_EQ(list->size(), 3u);
  EXPECT_DOUBLE_EQ(list->at(2).AsDouble(), 3.0);
}

TEST(JsonValueTest, DecodesStringEscapes) {
  Result<JsonValue> parsed =
      JsonValue::Parse(R"(["a\"b", "tab\t", "\u00e9\u0041"])");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().at(0).AsString(), "a\"b");
  EXPECT_EQ(parsed.value().at(1).AsString(), "tab\t");
  EXPECT_EQ(parsed.value().at(2).AsString(),
            "\xc3\xa9" "A");  // e-acute, then A
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonValue::Parse("").ok());
  EXPECT_FALSE(JsonValue::Parse("{").ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2,]").ok());
  EXPECT_FALSE(JsonValue::Parse("[1] trailing").ok());
  EXPECT_FALSE(JsonValue::Parse(R"({"a": 01})").ok());
}

TEST(JsonValueTest, RoundTripsQuotedStrings) {
  const std::string original = "line\nbreak \"quoted\" tab\t";
  Result<JsonValue> parsed = JsonValue::Parse(JsonQuote(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().AsString(), original);
}

// --- Backoff ---

TEST(BackoffTest, DeterministicUnderSeed) {
  BackoffPolicy policy;
  policy.seed = 42;
  Backoff a(policy);
  Backoff b(policy);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.NextDelaySec(), b.NextDelaySec()) << "attempt " << i;
  }
  EXPECT_EQ(a.attempts(), 10u);
}

TEST(BackoffTest, DifferentSeedsDesynchronize) {
  BackoffPolicy pa;
  pa.seed = 1;
  BackoffPolicy pb;
  pb.seed = 2;
  Backoff a(pa);
  Backoff b(pb);
  bool any_different = false;
  for (int i = 0; i < 8; ++i) {
    if (a.NextDelaySec() != b.NextDelaySec()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(BackoffTest, GrowsExponentiallyWithinJitterBounds) {
  BackoffPolicy policy;
  policy.initial_sec = 0.01;
  policy.multiplier = 2.0;
  policy.max_sec = 100.0;  // cap out of the way
  policy.jitter = 0.5;
  policy.seed = 7;
  Backoff backoff(policy);
  double base = policy.initial_sec;
  for (int i = 0; i < 8; ++i) {
    const double delay = backoff.NextDelaySec();
    EXPECT_GE(delay, base * 0.5 - 1e-12) << "attempt " << i;
    EXPECT_LE(delay, base * 1.5 + 1e-12) << "attempt " << i;
    base *= policy.multiplier;
  }
}

TEST(BackoffTest, CapsAtMaxAndSurvivesManyAttempts) {
  BackoffPolicy policy;
  policy.initial_sec = 0.01;
  policy.max_sec = 0.05;
  policy.jitter = 0.5;
  Backoff backoff(policy);
  // Far past where initial * multiplier^k overflows a double: the delay
  // must stay finite and capped.
  for (int i = 0; i < 2000; ++i) {
    const double delay = backoff.NextDelaySec();
    EXPECT_GE(delay, 0.0);
    EXPECT_LE(delay, policy.max_sec);
  }
}

TEST(BackoffTest, NoJitterIsExactBaseSequence) {
  BackoffPolicy policy;
  policy.initial_sec = 0.01;
  policy.multiplier = 2.0;
  policy.max_sec = 0.04;
  policy.jitter = 0.0;
  Backoff backoff(policy);
  EXPECT_DOUBLE_EQ(backoff.NextDelaySec(), 0.01);
  EXPECT_DOUBLE_EQ(backoff.NextDelaySec(), 0.02);
  EXPECT_DOUBLE_EQ(backoff.NextDelaySec(), 0.04);
  EXPECT_DOUBLE_EQ(backoff.NextDelaySec(), 0.04);  // capped
}

TEST(BackoffTest, ResetRestartsTheSequence) {
  BackoffPolicy policy;
  policy.seed = 11;
  Backoff backoff(policy);
  std::vector<double> first;
  for (int i = 0; i < 5; ++i) first.push_back(backoff.NextDelaySec());
  backoff.Reset();
  EXPECT_EQ(backoff.attempts(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(backoff.NextDelaySec(), first[static_cast<size_t>(i)]);
  }
}

// --- Boolean environment knobs ---

TEST(EnvFlagTest, UnsetEmptyZeroAreOffAndOneIsOn) {
  unsetenv("TG_TEST_BOOL_KNOB");
  EXPECT_FALSE(EnvFlag("TG_TEST_BOOL_KNOB"));
  for (const char* off : {"", "0"}) {
    ASSERT_EQ(setenv("TG_TEST_BOOL_KNOB", off, 1), 0);
    EXPECT_FALSE(EnvFlag("TG_TEST_BOOL_KNOB")) << '"' << off << '"';
  }
  ASSERT_EQ(setenv("TG_TEST_BOOL_KNOB", "1", 1), 0);
  EXPECT_TRUE(EnvFlag("TG_TEST_BOOL_KNOB"));
  unsetenv("TG_TEST_BOOL_KNOB");
}

// Any other value exits 1 naming the variable and the value, so
// `TG_TRACE=false` can never switch tracing on.
TEST(EnvFlagDeathTest, AnyOtherValueIsHardError) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* bad : {"false", "true", "yes", "on", "2", "01", "1x"}) {
    ASSERT_EQ(setenv("TG_TEST_BOOL_KNOB", bad, 1), 0);
    EXPECT_EXIT(EnvFlag("TG_TEST_BOOL_KNOB"), ::testing::ExitedWithCode(1),
                std::string("TG_TEST_BOOL_KNOB=") + bad + ": expected 0 or 1")
        << bad;
  }
  unsetenv("TG_TEST_BOOL_KNOB");
}

}  // namespace
}  // namespace tg
