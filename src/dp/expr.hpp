// Arithmetic expressions over problem parameters.
//
// The paper's annotations "may depend on problem parameters such as the
// problem size (e.g., N)"; its future work is compiler-generated callbacks.
// This module is the target representation for that: a small expression
// language over named variables (N, A, ...) that compiles to the callback
// signature the partitioner consumes.
//
// Grammar (standard precedence, left associative):
//   expr    := term (('+' | '-') term)*
//   term    := factor (('*' | '/') factor)*
//   factor  := '-' factor | primary
//   primary := number | identifier | identifier '(' args ')' | '(' expr ')'
//   args    := expr (',' expr)*
//
// Functions: sqrt(x), min(x, y), max(x, y), ceil(x), floor(x), log2(x).
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "util/error.hpp"

namespace netpart {

/// Variable bindings for evaluation.
using ExprEnv = std::map<std::string, double, std::less<>>;

/// Syntax error from parse_expr.  Derives from ConfigError (so existing
/// handlers keep working) and carries the byte offset of the failure within
/// the parsed text -- the spec parser turns that into a line:column
/// location instead of the bare "parse error" it used to report.
class ExprError : public ConfigError {
 public:
  ExprError(const std::string& what, std::size_t offset)
      : ConfigError(what), offset_(offset) {}

  /// Byte offset into the text handed to parse_expr.
  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// A parsed expression; immutable and shareable.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Evaluate under the bindings.  Unknown identifiers and division by
  /// zero throw InvalidArgument.
  virtual double evaluate(const ExprEnv& env) const = 0;

  /// Round-trippable rendering (fully parenthesised).
  virtual std::string to_string() const = 0;

  /// Add every variable the expression references to `out` (static
  /// analysis: undefined / unused variable checks walk the tree without
  /// evaluating it).
  virtual void collect_variables(std::set<std::string>& out) const = 0;
};

using ExprPtr = std::shared_ptr<const Expr>;

/// All variables referenced anywhere in the expression.
std::set<std::string> expr_variables(const Expr& expr);

/// Parse an expression; throws ExprError (a ConfigError) with the byte
/// offset of the failure on syntax errors.
ExprPtr parse_expr(std::string_view text);

}  // namespace netpart
