// Key-value configuration.
//
// Bench binaries and examples accept small "key=value" overrides (problem
// size, seed, iteration count) from argv.  Typed getters validate and
// convert.
#pragma once

#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace netpart {

/// A conventional long option accepted beside key=value tokens.  A file
/// option is given as `--flag FILE` or `--flag=FILE` and sets key=FILE; a
/// switch (takes_file = false) is a bare `--flag` and sets key=1.
struct LongOption {
  std::string_view flag;  ///< e.g. "--trace-out"
  std::string_view key;   ///< e.g. "trace_out"
  bool takes_file = true;
};

class Config {
 public:
  Config() = default;

  /// Parse "key=value" tokens; later duplicates win.  Tokens naming one of
  /// `options` are rewritten to key=value first (a file option with no
  /// argument after it throws ConfigError "--flag needs a file
  /// argument"); any other token without '=' throws ConfigError.
  static Config from_args(const std::vector<std::string>& args,
                          std::initializer_list<LongOption> options = {});
  /// argv[1..argc) as above.
  static Config from_args(int argc, const char* const* argv,
                          std::initializer_list<LongOption> options = {});

  void set(const std::string& key, const std::string& value);
  bool contains(const std::string& key) const;

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& dflt) const;
  std::int64_t get_int_or(const std::string& key, std::int64_t dflt) const;
  double get_double_or(const std::string& key, double dflt) const;
  bool get_bool_or(const std::string& key, bool dflt) const;

  const std::map<std::string, std::string>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, std::string> entries_;
};

}  // namespace netpart
