#include "dp/expr.hpp"

#include <cctype>
#include <cmath>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace netpart {

namespace {

class NumberExpr final : public Expr {
 public:
  explicit NumberExpr(double value) : value_(value) {}
  double evaluate(const ExprEnv&) const override { return value_; }
  void collect_variables(std::set<std::string>&) const override {}
  std::string to_string() const override {
    std::string s = std::to_string(value_);
    // Trim trailing zeros for readability.
    while (s.find('.') != std::string::npos &&
           (s.back() == '0' || s.back() == '.')) {
      const char c = s.back();
      s.pop_back();
      if (c == '.') break;
    }
    return s;
  }

 private:
  double value_;
};

class VarExpr final : public Expr {
 public:
  explicit VarExpr(std::string name) : name_(std::move(name)) {}
  double evaluate(const ExprEnv& env) const override {
    const auto it = env.find(name_);
    if (it == env.end()) {
      throw InvalidArgument("unbound variable in annotation expression: " +
                            name_);
    }
    return it->second;
  }
  void collect_variables(std::set<std::string>& out) const override {
    out.insert(name_);
  }
  std::string to_string() const override { return name_; }

 private:
  std::string name_;
};

class UnaryExpr final : public Expr {
 public:
  explicit UnaryExpr(ExprPtr inner) : inner_(std::move(inner)) {}
  double evaluate(const ExprEnv& env) const override {
    return -inner_->evaluate(env);
  }
  void collect_variables(std::set<std::string>& out) const override {
    inner_->collect_variables(out);
  }
  std::string to_string() const override {
    return "(-" + inner_->to_string() + ")";
  }

 private:
  ExprPtr inner_;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(char op, ExprPtr lhs, ExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  double evaluate(const ExprEnv& env) const override {
    const double a = lhs_->evaluate(env);
    const double b = rhs_->evaluate(env);
    switch (op_) {
      case '+':
        return a + b;
      case '-':
        return a - b;
      case '*':
        return a * b;
      case '/':
        if (b == 0.0) {
          throw InvalidArgument("division by zero in annotation "
                                "expression");
        }
        return a / b;
    }
    throw LogicError("unknown operator");
  }
  void collect_variables(std::set<std::string>& out) const override {
    lhs_->collect_variables(out);
    rhs_->collect_variables(out);
  }
  std::string to_string() const override {
    // Built with += rather than one operator+ chain: gcc 12's -Wrestrict
    // fires a false positive on the chained temporaries under -O2.
    std::string out = "(";
    out += lhs_->to_string();
    out += ' ';
    out += op_;
    out += ' ';
    out += rhs_->to_string();
    out += ')';
    return out;
  }

 private:
  char op_;
  ExprPtr lhs_;
  ExprPtr rhs_;
};

class CallExpr final : public Expr {
 public:
  CallExpr(std::string name, std::vector<ExprPtr> args)
      : name_(std::move(name)), args_(std::move(args)) {}
  double evaluate(const ExprEnv& env) const override {
    const auto arg = [&](std::size_t i) {
      return args_[i]->evaluate(env);
    };
    if (name_ == "sqrt" && args_.size() == 1) {
      const double v = arg(0);
      NP_REQUIRE(v >= 0.0, "sqrt of a negative annotation value");
      return std::sqrt(v);
    }
    if (name_ == "min" && args_.size() == 2) {
      return std::min(arg(0), arg(1));
    }
    if (name_ == "max" && args_.size() == 2) {
      return std::max(arg(0), arg(1));
    }
    if (name_ == "ceil" && args_.size() == 1) return std::ceil(arg(0));
    if (name_ == "floor" && args_.size() == 1) return std::floor(arg(0));
    if (name_ == "log2" && args_.size() == 1) {
      const double v = arg(0);
      NP_REQUIRE(v > 0.0, "log2 of a non-positive annotation value");
      return std::log2(v);
    }
    throw InvalidArgument("unknown function or arity in annotation "
                          "expression: " + name_);
  }
  void collect_variables(std::set<std::string>& out) const override {
    for (const ExprPtr& arg : args_) arg->collect_variables(out);
  }
  std::string to_string() const override {
    std::string out = name_ + "(";
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (i > 0) out += ", ";
      out += args_[i]->to_string();
    }
    return out + ")";
  }

 private:
  std::string name_;
  std::vector<ExprPtr> args_;
};

/// Recursive-descent parser over a string view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ExprPtr parse() {
    ExprPtr e = expr();
    skip_space();
    if (pos_ != text_.size()) {
      fail("unexpected trailing input");
    }
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw ExprError("expression error at offset " + std::to_string(pos_) +
                        ": " + what + " in '" + std::string(text_) + "'",
                    pos_);
  }

  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_space();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  char peek() {
    skip_space();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  ExprPtr expr() {
    ExprPtr lhs = term();
    while (true) {
      if (eat('+')) {
        lhs = std::make_shared<BinaryExpr>('+', lhs, term());
      } else if (eat('-')) {
        lhs = std::make_shared<BinaryExpr>('-', lhs, term());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr term() {
    ExprPtr lhs = factor();
    while (true) {
      if (eat('*')) {
        lhs = std::make_shared<BinaryExpr>('*', lhs, factor());
      } else if (eat('/')) {
        lhs = std::make_shared<BinaryExpr>('/', lhs, factor());
      } else {
        return lhs;
      }
    }
  }

  ExprPtr factor() {
    if (eat('-')) {
      return std::make_shared<UnaryExpr>(factor());
    }
    return primary();
  }

  ExprPtr primary() {
    skip_space();
    if (eat('(')) {
      ExprPtr inner = expr();
      if (!eat(')')) fail("expected ')'");
      return inner;
    }
    if (pos_ >= text_.size()) fail("unexpected end of expression");
    const char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '.') {
      return number();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return identifier();
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  ExprPtr number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E' ||
            ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
             (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      fail("bad numeric literal '" + token + "'");
    }
    return std::make_shared<NumberExpr>(value);
  }

  ExprPtr identifier() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    std::string name(text_.substr(start, pos_ - start));
    if (peek() == '(') {
      eat('(');
      std::vector<ExprPtr> args;
      if (peek() != ')') {
        args.push_back(expr());
        while (eat(',')) {
          args.push_back(expr());
        }
      }
      if (!eat(')')) fail("expected ')' after arguments");
      return std::make_shared<CallExpr>(std::move(name), std::move(args));
    }
    return std::make_shared<VarExpr>(std::move(name));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::set<std::string> expr_variables(const Expr& expr) {
  std::set<std::string> out;
  expr.collect_variables(out);
  return out;
}

ExprPtr parse_expr(std::string_view text) {
  return Parser(text).parse();
}

}  // namespace netpart
