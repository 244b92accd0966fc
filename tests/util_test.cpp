// Unit tests for the util library: time, rng, statistics, least squares,
// tables, csv, config, strings, hashing and the flat key index.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <sstream>
#include <vector>

#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/flat_index.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/least_squares.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace netpart {
namespace {

// ------------------------------------------------------------------ time

TEST(SimTimeTest, ConstructorsAgree) {
  EXPECT_EQ(SimTime::millis(1).as_nanos(), 1000000);
  EXPECT_EQ(SimTime::micros(1).as_nanos(), 1000);
  EXPECT_EQ(SimTime::seconds(1).as_nanos(), 1000000000);
  EXPECT_EQ(SimTime::zero().as_nanos(), 0);
}

TEST(SimTimeTest, ArithmeticAndComparison) {
  const SimTime a = SimTime::millis(2);
  const SimTime b = SimTime::millis(3);
  EXPECT_EQ((a + b).as_millis(), 5.0);
  EXPECT_EQ((b - a).as_millis(), 1.0);
  EXPECT_EQ((a * 4).as_millis(), 8.0);
  EXPECT_EQ((a * 2.5).as_millis(), 5.0);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, SimTime::micros(2000));
}

TEST(SimTimeTest, FractionalRounding) {
  EXPECT_EQ(SimTime::micros(0.0004).as_nanos(), 0);
  EXPECT_EQ(SimTime::micros(0.0006).as_nanos(), 1);
}

// ------------------------------------------------------------------- rng

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, StreamsAreIndependent) {
  Rng base(42);
  Rng s1 = base.stream(1);
  Rng s2 = base.stream(2);
  // Different salts give different sequences.
  bool any_different = false;
  for (int i = 0; i < 16; ++i) {
    if (s1.next_u64() != s2.next_u64()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, IntRespectsBoundsAndCoversRange) {
  Rng rng(9);
  std::vector<int> seen(6, 0);
  for (int i = 0; i < 6000; ++i) {
    const std::int64_t v = rng.next_int(10, 15);
    ASSERT_GE(v, 10);
    ASSERT_LE(v, 15);
    ++seen[static_cast<std::size_t>(v - 10)];
  }
  for (int count : seen) {
    EXPECT_GT(count, 700);  // roughly uniform: expectation 1000
  }
}

TEST(RngTest, BoolProbabilityRoughlyCorrect) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.next_bool(0.25)) ++hits;
  }
  EXPECT_NEAR(hits, 2500, 200);
  EXPECT_FALSE(Rng(1).next_bool(0.0));
  EXPECT_TRUE(Rng(1).next_bool(1.0));
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  RunningStats stats;
  RunningStats squares;  // E[x^2] = sigma^2 at zero mean
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.next_gaussian(2.0);
    stats.add(x);
    squares.add(x * x);
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.1);
  EXPECT_NEAR(squares.mean(), 4.0, 0.4);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(rng.next_exponential(0.5));
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.05);
  EXPECT_THROW(rng.next_exponential(0.0), InvalidArgument);
}

TEST(ZipfSamplerTest, InverseCdfOneDrawPerSample) {
  const ZipfSampler zipf(4, 1.0);
  Rng rng(23);
  Rng reference(23);
  // Weights 1, 1/2, 1/3, 1/4 over 25/12: the CDF is 12/25, 18/25, 22/25, 1.
  const double cdf[] = {12.0 / 25, 18.0 / 25, 22.0 / 25};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 4000; ++i) {
    const int rank = zipf.draw(rng);
    const double u = reference.next_double();
    int expected = 0;
    while (expected < 3 && u > cdf[expected]) ++expected;
    ASSERT_EQ(rank, expected) << "draw " << i;
    ++counts[static_cast<std::size_t>(rank)];
  }
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[3]);
  EXPECT_EQ(ZipfSampler(1, 1.1).draw(rng), 0);
  EXPECT_THROW(ZipfSampler(0, 1.0), InvalidArgument);
}

// ----------------------------------------------------------------- stats

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(StatsTest, Percentile) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.0);
  EXPECT_THROW(percentile({}, 0.5), InvalidArgument);
}

TEST(StatsTest, RSquaredPerfectAndPoor) {
  const std::vector<double> obs = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(r_squared(obs, obs), 1.0);
  const std::vector<double> flat = {2.5, 2.5, 2.5, 2.5};
  EXPECT_LE(r_squared(obs, flat), 0.0 + 1e-12);
}

// --------------------------------------------------------- least squares

TEST(LeastSquaresTest, SolveLinearKnownSystem) {
  // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3.
  const auto x = solve_linear({2, 1, 1, 3}, {5, 10}, 2);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LeastSquaresTest, SingularSystemThrows) {
  EXPECT_THROW(solve_linear({1, 2, 2, 4}, {1, 2}, 2), LogicError);
}

TEST(LeastSquaresTest, Eq1RecoversPlantedConstants) {
  std::vector<Sample2D> samples;
  const double c1 = 0.4, c2 = 1.1, c3 = -0.005, c4 = 0.0028;
  for (double p : {2.0, 3.0, 4.0, 5.0, 6.0}) {
    for (double b : {240.0, 1200.0, 2400.0, 4800.0}) {
      samples.push_back({p, b, c1 + c2 * p + b * (c3 + c4 * p)});
    }
  }
  const Eq1Fit fit = fit_eq1(samples);
  EXPECT_NEAR(fit.c1, c1, 1e-9);
  EXPECT_NEAR(fit.c2, c2, 1e-9);
  EXPECT_NEAR(fit.c3, c3, 1e-12);
  EXPECT_NEAR(fit.c4, c4, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LeastSquaresTest, Eq1RobustToNoise) {
  Rng rng(5);
  std::vector<Sample2D> samples;
  for (double p : {2.0, 4.0, 6.0, 8.0}) {
    for (double b : {100.0, 1000.0, 4000.0}) {
      const double truth = 2.0 + 0.5 * p + b * (0.001 + 0.002 * p);
      samples.push_back({p, b, truth * (1.0 + rng.next_gaussian(0.01))});
    }
  }
  const Eq1Fit fit = fit_eq1(samples);
  EXPECT_NEAR(fit.c2, 0.5, 0.2);
  EXPECT_NEAR(fit.c4, 0.002, 2e-4);
  EXPECT_GT(fit.r2, 0.99);
}

TEST(LeastSquaresTest, LineFit) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {3, 5, 7, 9};  // y = 2x + 1
  const LineFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
}

// ----------------------------------------------------------------- table

TEST(TableTest, RendersAlignedColumns) {
  Table t({"a", "long header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.render("title");
  EXPECT_NE(out.find("title"), std::string::npos);
  EXPECT_NE(out.find("| long header |"), std::string::npos);
  EXPECT_NE(out.find("| 333 |"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, RejectsRaggedRows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), InvalidArgument);
}

// ------------------------------------------------------------------- csv

TEST(CsvTest, EscapesSpecials) {
  std::ostringstream os;
  CsvWriter w(os, {"x", "y"});
  w.write_row({"plain", "has,comma"});
  w.write_row({"has\"quote", "multi\nline"});
  EXPECT_EQ(os.str(),
            "x,y\nplain,\"has,comma\"\n\"has\"\"quote\",\"multi\nline\"\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

// ---------------------------------------------------------------- config

TEST(ConfigTest, ParsesArgsAndTypes) {
  const Config cfg = Config::from_args({"n=300", "loss=0.1", "flag=true"});
  EXPECT_EQ(cfg.get_int_or("n", 0), 300);
  EXPECT_DOUBLE_EQ(cfg.get_double_or("loss", 0.0), 0.1);
  EXPECT_TRUE(cfg.get_bool_or("flag", false));
  EXPECT_EQ(cfg.get_int_or("missing", 7), 7);
  EXPECT_THROW(Config::from_args({"no-equals"}), ConfigError);
  EXPECT_THROW(cfg.get_int_or("loss", 0), ConfigError);
}

TEST(ConfigTest, RewritesDaemonLongOptions) {
  const std::initializer_list<LongOption> options = {
      {"--check", "check", false}, {"--trace-out", "trace_out"}};
  const Config cfg = Config::from_args(
      {"n=3", "--check", "--trace-out", "t.json"}, options);
  EXPECT_EQ(cfg.get_int_or("n", 0), 3);
  EXPECT_TRUE(cfg.get_bool_or("check", false));
  EXPECT_EQ(cfg.get_or("trace_out", ""), "t.json");
  EXPECT_EQ(Config::from_args({"--trace-out=u.json"}, options)
                .get_or("trace_out", ""),
            "u.json");
  // A file option at the end of argv has no file to take.
  try {
    Config::from_args({"n=3", "--trace-out"}, options);
    FAIL() << "dangling --trace-out accepted";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "--trace-out needs a file argument");
  }
  // Without the option table the flag is just a malformed token.
  EXPECT_THROW(Config::from_args({"--trace-out", "t.json"}), ConfigError);
}

// --------------------------------------------------------------- strings

TEST(StringUtilTest, SplitTrimPad) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(pad_right("7", 3), "7  ");
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_TRUE(starts_with("abcdef", "abc"));
  EXPECT_FALSE(starts_with("ab", "abc"));
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
}

// ------------------------------------------------------------------ hash

// Published FNV-1a 64-bit vectors: cache keys must be reproducible across
// platforms, so the primitive is pinned to golden values.
TEST(Fnv1aTest, GoldenVectors) {
  const auto raw = [](std::string_view s) {
    return Fnv1a().bytes(s.data(), s.size()).value();
  };
  EXPECT_EQ(raw(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(raw("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(raw("foobar"), 0x85944171f73967e8ull);
}

TEST(Fnv1aTest, StructuredFieldsAreWidthStable) {
  // The same logical value hashed through different widths must differ
  // (each field contributes its full fixed-width encoding)...
  EXPECT_NE(Fnv1a().u32(7).value(), Fnv1a().u64(7).value());
  // ...and repeated runs are bit-identical.
  EXPECT_EQ(Fnv1a().u64(7).i32(-1).f64(0.5).value(),
            Fnv1a().u64(7).i32(-1).f64(0.5).value());
}

TEST(Fnv1aTest, LengthPrefixPreventsConcatenationCollisions) {
  EXPECT_NE(Fnv1a().str("ab").str("c").value(),
            Fnv1a().str("a").str("bc").value());
}

TEST(Fnv1aTest, DoublesAreCanonicalised) {
  // -0.0 and +0.0 compare equal, so they must hash equal.
  EXPECT_EQ(Fnv1a().f64(0.0).value(), Fnv1a().f64(-0.0).value());
  // Any NaN payload collapses to one canonical bit pattern.
  const double nan1 = std::numeric_limits<double>::quiet_NaN();
  const double nan2 = -nan1;
  EXPECT_EQ(Fnv1a().f64(nan1).value(), Fnv1a().f64(nan2).value());
}

// ------------------------------------------------------------ flat index

// Keys whose probes start at `home`, found by search: long probe runs need
// keys that share a home slot, and random keys at load 1/2 rarely make them.
std::vector<std::uint64_t> keys_homed_at(const FlatIndex<std::uint32_t>& index,
                                         std::size_t home, std::size_t count,
                                         std::uint64_t from = 1) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t key = from; keys.size() < count; ++key) {
    if (index.home(key) == home) keys.push_back(key);
  }
  return keys;
}

// Every key in `expected` is found with its value, and nothing else is
// stored.
void expect_holds(const FlatIndex<std::uint32_t>& index,
                  const std::map<std::uint64_t, std::uint32_t>& expected) {
  EXPECT_EQ(index.size(), expected.size());
  for (const auto& [key, value] : expected) {
    const std::uint32_t* found = index.find(key);
    ASSERT_NE(found, nullptr) << "key " << key;
    EXPECT_EQ(*found, value) << "key " << key;
  }
}

TEST(FlatIndexTest, ZeroAndAllOnesAreOrdinaryKeys) {
  FlatIndex<std::uint32_t> index(4);
  // A free slot's key field reads 0; only its flag says it is free.
  EXPECT_EQ(index.find(0), nullptr);
  EXPECT_EQ(index.find(UINT64_MAX), nullptr);
  index.insert(0, 7);
  index.insert(UINT64_MAX, 9);
  expect_holds(index, {{0, 7}, {UINT64_MAX, 9}});
  EXPECT_EQ(index.extract(0), std::optional<std::uint32_t>(7));
  EXPECT_EQ(index.find(0), nullptr);
  EXPECT_EQ(index.extract(0), std::nullopt);
  expect_holds(index, {{UINT64_MAX, 9}});
}

TEST(FlatIndexTest, EraseFromTheMiddleOfAProbeRunKeepsTheRest) {
  FlatIndex<std::uint32_t> index(8);
  ASSERT_EQ(index.slot_count(), 16u);
  // Four keys homed at slot 3 fill slots 3-6; two homed at slot 4 follow
  // in slots 7-8.  Erasing the second of the first four must pull later
  // members back over the hole without moving any before its home.
  const auto at3 = keys_homed_at(index, 3, 4);
  const auto at4 = keys_homed_at(index, 4, 2);
  std::map<std::uint64_t, std::uint32_t> expected;
  std::uint32_t value = 0;
  for (const auto& group : {at3, at4}) {
    for (const std::uint64_t key : group) {
      index.insert(key, value);
      expected[key] = value++;
    }
  }
  expect_holds(index, expected);
  for (const std::uint64_t key : {at3[1], at4[0], at3[0], at3[3]}) {
    EXPECT_EQ(index.extract(key), std::optional<std::uint32_t>(expected[key]));
    expected.erase(key);
    EXPECT_EQ(index.find(key), nullptr);
    expect_holds(index, expected);
  }
}

TEST(FlatIndexTest, ProbeRunsWrapAroundTheTableEnd) {
  FlatIndex<std::uint32_t> index(4);
  ASSERT_EQ(index.slot_count(), 8u);
  // Three keys homed at the last slot occupy slots 7, 0 and 1; a key homed
  // at slot 0 lands in slot 2.  Erasing the one in slot 7 shifts members
  // back across the end, and the slot-0 key may then move into slot 1.
  const auto last = keys_homed_at(index, 7, 3);
  const auto first = keys_homed_at(index, 0, 1);
  std::map<std::uint64_t, std::uint32_t> expected;
  for (const std::uint64_t key : {last[0], last[1], last[2], first[0]}) {
    const auto value = static_cast<std::uint32_t>(expected.size());
    index.insert(key, value);
    expected[key] = value;
  }
  expect_holds(index, expected);
  for (const std::uint64_t key : {last[0], first[0], last[2], last[1]}) {
    ASSERT_TRUE(index.extract(key).has_value());
    expected.erase(key);
    expect_holds(index, expected);
  }
  EXPECT_EQ(index.size(), 0u);
}

TEST(FlatIndexTest, InsertBeyondTheBoundThrows) {
  FlatIndex<std::uint32_t> index(3);
  for (std::uint64_t key = 0; key < 3; ++key) {
    index.insert(key, static_cast<std::uint32_t>(key));
  }
  EXPECT_THROW(index.insert(3, 3), InvalidArgument);
  EXPECT_EQ(index.size(), 3u);
  ASSERT_TRUE(index.extract(1).has_value());
  index.insert(3, 3);
  expect_holds(index, {{0, 0}, {2, 2}, {3, 3}});
  index.clear();
  expect_holds(index, {});
  EXPECT_EQ(index.find(0), nullptr);
}

// Seeded churn on keys crowded onto the last three slots and the first
// one, so nearly every erase shifts a run, often across the table's end;
// checked after every step against std::map.
TEST(FlatIndexTest, ClusteredChurnMatchesAMap) {
  constexpr std::size_t kBound = 8;
  FlatIndex<std::uint32_t> index(kBound);
  std::vector<std::uint64_t> keys;
  for (const std::size_t home : {13u, 14u, 15u, 0u}) {
    for (const std::uint64_t key : keys_homed_at(index, home, 4)) {
      keys.push_back(key);
    }
  }
  keys.push_back(0);  // home 0
  std::map<std::uint64_t, std::uint32_t> expected;
  Rng rng(20261019);
  for (std::uint32_t step = 0; step < 4000; ++step) {
    const std::uint64_t key = keys[static_cast<std::size_t>(
        rng.next_int(0, static_cast<std::int64_t>(keys.size()) - 1))];
    if (expected.count(key) != 0) {
      EXPECT_EQ(index.extract(key),
                std::optional<std::uint32_t>(expected[key]));
      expected.erase(key);
    } else if (expected.size() < kBound) {
      index.insert(key, step);
      expected[key] = step;
    }
    expect_holds(index, expected);
    for (const std::uint64_t absent : keys) {
      if (expected.count(absent) == 0) {
        EXPECT_EQ(index.find(absent), nullptr) << "key " << absent;
      }
    }
    if (HasFailure()) FAIL() << "diverged at step " << step;
  }
}

// ------------------------------------------------------------------ json

TEST(JsonTest, MembersRenderInInsertionOrder) {
  JsonValue v = JsonValue::object();
  v.set("zebra", 1);
  v.set("alpha", 2);
  EXPECT_EQ(v.dump(), "{\"zebra\":1,\"alpha\":2}");
}

TEST(JsonTest, EscapesAndScalars) {
  JsonValue v = JsonValue::object();
  v.set("s", "a\"b\n");
  v.set("t", true);
  v.set("none", JsonValue());
  v.set("half", 0.5);
  EXPECT_EQ(v.dump(),
            "{\"s\":\"a\\\"b\\n\",\"t\":true,\"none\":null,\"half\":0.5}");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  JsonValue v = JsonValue::array();
  v.push(std::numeric_limits<double>::infinity());
  v.push(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(v.dump(), "[null,null]");
}

// ---------------------------------------------------------------- errors

TEST(ErrorTest, AssertMacroThrowsLogicError) {
  EXPECT_THROW([] { NP_ASSERT(1 == 2); }(), LogicError);
  EXPECT_NO_THROW([] { NP_ASSERT(1 == 1); }());
}

TEST(ErrorTest, RequireCarriesMessage) {
  try {
    NP_REQUIRE(false, "custom context");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("custom context"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace netpart
