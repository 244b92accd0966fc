// Round-trip and error tests for cost-model persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "calib/calibrate.hpp"
#include "calib/model_io.hpp"
#include "net/presets.hpp"
#include "util/error.hpp"

namespace netpart {
namespace {

CostModelDb sample_db() {
  CostModelDb db(3);
  db.set_comm(0, Topology::OneD, Eq1Fit{-0.9, 1.1, -0.0055, 0.00283, 0.999});
  db.set_comm(2, Topology::Broadcast, Eq1Fit{0.1, 0.5, 0.001, 0.0007, 1.0});
  LineFit router;
  router.slope = 0.0006;
  router.intercept = -0.01;
  router.r2 = 0.98;
  db.set_router(0, 1, router);
  LineFit coerce;
  coerce.slope = 0.00035;
  db.set_coerce(1, 2, coerce);
  return db;
}

TEST(ModelIoTest, RoundTripIsExact) {
  const CostModelDb original = sample_db();
  const CostModelDb loaded = load_cost_model(save_cost_model(original));
  EXPECT_EQ(loaded.num_clusters(), 3);
  ASSERT_TRUE(loaded.has_comm(0, Topology::OneD));
  ASSERT_TRUE(loaded.has_comm(2, Topology::Broadcast));
  EXPECT_FALSE(loaded.has_comm(1, Topology::OneD));
  const Eq1Fit& fit = loaded.comm_fit(0, Topology::OneD);
  // Hex-float serialisation: bit-exact doubles.
  EXPECT_EQ(fit.c1, -0.9);
  EXPECT_EQ(fit.c2, 1.1);
  EXPECT_EQ(fit.c3, -0.0055);
  EXPECT_EQ(fit.c4, 0.00283);
  EXPECT_EQ(loaded.router_fit(0, 1)->slope, 0.0006);
  EXPECT_TRUE(loaded.has_coerce(1, 2));
  EXPECT_FALSE(loaded.router_fit(1, 2).has_value());
}

TEST(ModelIoTest, CalibratedTestbedRoundTrips) {
  CalibrationParams params;
  params.topologies = {Topology::OneD};
  const CalibrationResult cal =
      calibrate(presets::paper_testbed(), params);
  const CostModelDb loaded = load_cost_model(save_cost_model(cal.db));
  for (ClusterId c = 0; c < 2; ++c) {
    EXPECT_EQ(loaded.comm_ms(c, Topology::OneD, 2400, 5),
              cal.db.comm_ms(c, Topology::OneD, 2400, 5));
  }
  EXPECT_EQ(loaded.router_ms(0, 1, 2400), cal.db.router_ms(0, 1, 2400));
}

TEST(ModelIoTest, FileRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "np_model_io_test.txt")
          .string();
  save_cost_model_file(sample_db(), path);
  const CostModelDb loaded = load_cost_model_file(path);
  EXPECT_TRUE(loaded.has_comm(0, Topology::OneD));
  std::remove(path.c_str());
  EXPECT_THROW(load_cost_model_file(path), ConfigError);
}

TEST(ModelIoTest, CommentsAndBlankLinesIgnored) {
  std::string text = save_cost_model(sample_db());
  text = "# header comment\n\n" + text + "\n# trailing\n";
  EXPECT_NO_THROW(load_cost_model(text));
}

TEST(ModelIoTest, SaveLoadSaveIsIdempotent) {
  const std::string once = save_cost_model(sample_db());
  const std::string twice = save_cost_model(load_cost_model(once));
  EXPECT_EQ(once, twice);
}

TEST(ModelIoTest, TruncatedInputsNeverCrashTheLoader) {
  // Chopping the serialised form at every byte must never crash the
  // loader: each prefix either raises a typed error or parses as a valid
  // (smaller) database.  A cut can survive parsing only by landing at a
  // line boundary or inside the final token of a record in a way that
  // still reads as a number -- either way the result is well-formed.
  const std::string text = save_cost_model(sample_db());
  int rejected = 0;
  for (std::size_t len = 0; len < text.size(); ++len) {
    const std::string prefix = text.substr(0, len);
    try {
      load_cost_model(prefix);
    } catch (const ConfigError&) {
      ++rejected;
    } catch (const InvalidArgument&) {
      ++rejected;
    }
  }
  // Most cuts land mid-record and must be detected.
  EXPECT_GT(rejected, static_cast<int>(text.size()) / 2);
}

TEST(ModelIoTest, DirectedTruncationsRejected) {
  const std::string text = save_cost_model(sample_db());
  // Mid-header cut.
  EXPECT_THROW(load_cost_model(text.substr(0, 10)), ConfigError);
  // A comm record cut down to too few fields.
  EXPECT_THROW(
      load_cost_model("netpart-costmodel 1\nclusters 2\ncomm 0 1-D 0 0\n"),
      ConfigError);
}

TEST(ModelIoTest, CorruptedBytesNeverCrashTheLoader) {
  // Single-character corruption at every position: the loader must either
  // reject the text with a typed error or parse it -- never crash or hang.
  const std::string text = save_cost_model(sample_db());
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string corrupted = text;
    corrupted[i] = '~';
    try {
      load_cost_model(corrupted);
    } catch (const ConfigError&) {
    } catch (const InvalidArgument&) {
    }
  }
}

TEST(ModelIoTest, CorruptedNumericFieldsRejected) {
  EXPECT_THROW(
      load_cost_model("netpart-costmodel 1\nclusters 2\n"
                      "comm 0 1-D zzz 0 0 0 1\n"),
      ConfigError);
  EXPECT_THROW(
      load_cost_model("netpart-costmodel 1\nclusters 2\n"
                      "router 0 1 0.5 0.1\n"),  // missing r2 field
      ConfigError);
  EXPECT_THROW(
      load_cost_model("netpart-costmodel 1\nclusters x\n"), ConfigError);
}

TEST(ModelIoTest, MalformedInputsRejected) {
  EXPECT_THROW(load_cost_model(""), ConfigError);
  EXPECT_THROW(load_cost_model("wrong-magic 1\nclusters 1\n"), ConfigError);
  EXPECT_THROW(load_cost_model("netpart-costmodel 99\nclusters 1\n"),
               ConfigError);
  EXPECT_THROW(
      load_cost_model("netpart-costmodel 1\nclusters 2\ncomm 0 1-D 1\n"),
      ConfigError);
  EXPECT_THROW(
      load_cost_model("netpart-costmodel 1\nclusters 2\nbogus 0 1\n"),
      ConfigError);
  // Semantically invalid: cluster out of range.
  EXPECT_THROW(
      load_cost_model("netpart-costmodel 1\nclusters 1\n"
                      "comm 5 1-D 0 0 0 0 1\n"),
      InvalidArgument);
}

}  // namespace
}  // namespace netpart
