#include "util/config.hpp"

#include <cstdlib>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace netpart {

Config Config::from_args(const std::vector<std::string>& args,
                         std::initializer_list<LongOption> options) {
  Config cfg;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string arg = args[i];
    for (const LongOption& opt : options) {
      const std::string flag(opt.flag);
      if (arg == flag) {
        if (!opt.takes_file) {
          arg = std::string(opt.key) + "=1";
        } else if (i + 1 < args.size()) {
          arg = std::string(opt.key) + "=" + args[++i];
        } else {
          throw ConfigError(flag + " needs a file argument");
        }
        break;
      }
      if (opt.takes_file && starts_with(arg, flag + "=")) {
        arg = std::string(opt.key) + arg.substr(flag.size());
        break;
      }
    }
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("expected key=value, got: " + arg);
    }
    cfg.set(std::string(trim(arg.substr(0, eq))),
            std::string(trim(arg.substr(eq + 1))));
  }
  return cfg;
}

Config Config::from_args(int argc, const char* const* argv,
                         std::initializer_list<LongOption> options) {
  return from_args(std::vector<std::string>(argv + 1, argv + argc), options);
}

void Config::set(const std::string& key, const std::string& value) {
  NP_REQUIRE(!key.empty(), "config key must be non-empty");
  entries_[key] = value;
}

bool Config::contains(const std::string& key) const {
  return entries_.count(key) > 0;
}

std::optional<std::string> Config::get(const std::string& key) const {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string Config::get_or(const std::string& key,
                           const std::string& dflt) const {
  return get(key).value_or(dflt);
}

std::int64_t Config::get_int_or(const std::string& key,
                                std::int64_t dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0') {
    throw ConfigError("config key '" + key + "' is not an integer: " + *v);
  }
  return parsed;
}

double Config::get_double_or(const std::string& key, double dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0') {
    throw ConfigError("config key '" + key + "' is not a number: " + *v);
  }
  return parsed;
}

bool Config::get_bool_or(const std::string& key, bool dflt) const {
  const auto v = get(key);
  if (!v) return dflt;
  const std::string lower = to_lower(*v);
  if (lower == "true" || lower == "1" || lower == "yes") return true;
  if (lower == "false" || lower == "0" || lower == "no") return false;
  throw ConfigError("config key '" + key + "' is not a boolean: " + *v);
}

}  // namespace netpart
