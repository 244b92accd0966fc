// Tests for the annotation expression language and spec parser.
#include <gtest/gtest.h>

#include "dp/expr.hpp"
#include "dp/spec_parser.hpp"
#include "util/error.hpp"

namespace netpart {
namespace {

// ------------------------------------------------------------ expressions

TEST(ExprTest, ArithmeticAndPrecedence) {
  const ExprEnv env;
  EXPECT_DOUBLE_EQ(parse_expr("1 + 2 * 3")->evaluate(env), 7.0);
  EXPECT_DOUBLE_EQ(parse_expr("(1 + 2) * 3")->evaluate(env), 9.0);
  EXPECT_DOUBLE_EQ(parse_expr("10 - 4 - 3")->evaluate(env), 3.0);  // left assoc
  EXPECT_DOUBLE_EQ(parse_expr("8 / 2 / 2")->evaluate(env), 2.0);
  EXPECT_DOUBLE_EQ(parse_expr("-3 + 5")->evaluate(env), 2.0);
  EXPECT_DOUBLE_EQ(parse_expr("--4")->evaluate(env), 4.0);
  EXPECT_DOUBLE_EQ(parse_expr("2.5e2")->evaluate(env), 250.0);
}

TEST(ExprTest, VariablesAndFunctions) {
  const ExprEnv env = {{"N", 300.0}, {"A", 50.0}};
  EXPECT_DOUBLE_EQ(parse_expr("5 * N")->evaluate(env), 1500.0);
  EXPECT_DOUBLE_EQ(parse_expr("4 * sqrt(A * A)")->evaluate(env), 200.0);
  EXPECT_DOUBLE_EQ(parse_expr("min(N, A)")->evaluate(env), 50.0);
  EXPECT_DOUBLE_EQ(parse_expr("max(N, A)")->evaluate(env), 300.0);
  EXPECT_DOUBLE_EQ(parse_expr("ceil(N / 7)")->evaluate(env), 43.0);
  EXPECT_DOUBLE_EQ(parse_expr("floor(N / 7)")->evaluate(env), 42.0);
  EXPECT_DOUBLE_EQ(parse_expr("log2(8)")->evaluate(env), 3.0);
}

TEST(ExprTest, Errors) {
  const ExprEnv env = {{"N", 10.0}};
  EXPECT_THROW(parse_expr("N +")->evaluate(env), ConfigError);
  EXPECT_THROW(parse_expr("(N")->evaluate(env), ConfigError);
  EXPECT_THROW(parse_expr("N 5")->evaluate(env), ConfigError);
  EXPECT_THROW(parse_expr("@")->evaluate(env), ConfigError);
  EXPECT_THROW(parse_expr("M + 1")->evaluate(env), InvalidArgument);  // unbound
  EXPECT_THROW(parse_expr("1 / 0")->evaluate(env), InvalidArgument);
  EXPECT_THROW(parse_expr("sqrt(0 - 1)")->evaluate(env), InvalidArgument);
  EXPECT_THROW(parse_expr("hypot(3, 4)")->evaluate(env), InvalidArgument);
}

TEST(ExprTest, ToStringRoundTrips) {
  const ExprPtr e = parse_expr("4 * N + min(A, 8) / 2");
  const ExprEnv env = {{"N", 7.0}, {"A", 20.0}};
  EXPECT_DOUBLE_EQ(parse_expr(e->to_string())->evaluate(env),
                   e->evaluate(env));
}

// ------------------------------------------------------------------ specs

constexpr const char* kStencilSpec = R"(
# the paper's STEN-2 as a spec file
computation sten2
param N 300
iterations 10

phase compute grid
  pdus N
  ops 5 * N

phase comm borders
  topology 1-D
  bytes 4 * N
  overlap grid
)";

TEST(SpecParserTest, ParsesAndInstantiatesStencil) {
  const SpecTemplate tmpl = parse_spec(kStencilSpec);
  EXPECT_EQ(tmpl.name(), "sten2");
  const ComputationSpec spec = tmpl.instantiate();
  EXPECT_EQ(spec.num_pdus(), 300);
  EXPECT_EQ(spec.iterations(), 10);
  EXPECT_DOUBLE_EQ(spec.dominant_computation().ops_per_pdu(), 1500.0);
  EXPECT_EQ(spec.dominant_communication().topology(), Topology::OneD);
  EXPECT_EQ(spec.dominant_communication().bytes_per_message(50), 1200);
  EXPECT_TRUE(spec.dominant_phases_overlap());
}

TEST(SpecParserTest, OverridesRescaleTheProblem) {
  const SpecTemplate tmpl = parse_spec(kStencilSpec);
  const ComputationSpec spec = tmpl.instantiate({{"N", 1200.0}});
  EXPECT_EQ(spec.num_pdus(), 1200);
  EXPECT_EQ(spec.dominant_communication().bytes_per_message(100), 4800);
  EXPECT_THROW(tmpl.instantiate({{"M", 5.0}}), InvalidArgument);
}

TEST(SpecParserTest, BytesMayDependOnAssignment) {
  const SpecTemplate tmpl = parse_spec(R"(
computation blocks
param N 100
iterations N

phase compute work
  pdus N * N
  ops 9
  opkind int

phase comm halo
  topology 2-D
  bytes 4 * sqrt(A)
)");
  const ComputationSpec spec = tmpl.instantiate();
  EXPECT_EQ(spec.iterations(), 100);
  EXPECT_EQ(spec.num_pdus(), 10000);
  EXPECT_EQ(spec.dominant_computation().op_kind, OpKind::Integer);
  EXPECT_EQ(spec.dominant_communication().bytes_per_message(2500), 200);
}

TEST(SpecParserTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_spec(""), InvalidArgument);  // no phases at all
  EXPECT_THROW(parse_spec("bogus directive\n"), ConfigError);
  EXPECT_THROW(parse_spec("computation x\nphase compute g\n  pdus 10\n"),
               InvalidArgument);  // missing ops + iterations
  EXPECT_THROW(
      parse_spec("computation x\niterations 1\nphase compute g\n"
                 "  pdus 10\n  ops 1\n  opkind quantum\n"),
      ConfigError);
  EXPECT_THROW(
      parse_spec("computation x\niterations 1\nphase comm c\n  bytes 8\n"),
      InvalidArgument);  // comm phase with no compute phase
  EXPECT_THROW(parse_spec("computation x\nparam N oops\n"), ConfigError);
}

TEST(SpecParserTest, RejectsUnknownTopology) {
  EXPECT_THROW(
      parse_spec("computation x\niterations 1\n"
                 "phase compute g\n  pdus 10\n  ops 1\n"
                 "phase comm c\n  topology 9-D\n  bytes 8\n"),
      InvalidArgument);
}

TEST(SpecParserTest, RejectsPhaseKeysOutsideAnyPhase) {
  EXPECT_THROW(parse_spec("computation x\niterations 1\n  pdus 10\n"),
               ConfigError);
  EXPECT_THROW(parse_spec("computation x\niterations 1\n  bytes 8\n"),
               ConfigError);
}

TEST(SpecParserTest, RejectsTruncatedExpressions) {
  EXPECT_THROW(
      parse_spec("computation x\niterations 1\n"
                 "phase compute g\n  pdus 5 *\n  ops 1\n"),
      ConfigError);
  EXPECT_THROW(
      parse_spec("computation x\niterations\n"
                 "phase compute g\n  pdus 10\n  ops 1\n"),
      ConfigError);
}

TEST(SpecParserTest, OverlapWithUnknownPhaseSurfacesAtInstantiation) {
  const SpecTemplate tmpl = parse_spec(R"(
computation x
iterations 1
phase compute g
  pdus 10
  ops 1
phase comm c
  bytes 8
  overlap nosuch
)");
  EXPECT_THROW(tmpl.instantiate(), InvalidArgument);
}

TEST(SpecParserTest, NonPositiveInstantiationsRejected) {
  const SpecTemplate tmpl = parse_spec(R"(
computation x
param N 10
iterations N
phase compute g
  pdus N
  ops 1
)");
  EXPECT_NO_THROW(tmpl.instantiate());
  EXPECT_THROW(tmpl.instantiate({{"N", 0.0}}), InvalidArgument);
  EXPECT_THROW(tmpl.instantiate({{"N", -3.0}}), InvalidArgument);
}

TEST(SpecParserTest, UndeclaredVariableSurfacesAtInstantiation) {
  const SpecTemplate tmpl = parse_spec(R"(
computation x
iterations 1
phase compute g
  pdus M
  ops 1
)");
  EXPECT_THROW(tmpl.instantiate(), InvalidArgument);
}

}  // namespace
}  // namespace netpart
