// Small string helpers shared by the config parser and table renderers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace netpart {

/// Split on a delimiter; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Lower-case ASCII copy.
std::string to_lower(std::string_view s);

/// Fixed-precision formatting (std::to_string prints too many digits).
std::string format_double(double v, int precision);

/// Left-align a string into a field of `width` (pads with spaces; never
/// truncates).
std::string pad_right(std::string_view s, std::size_t width);

}  // namespace netpart
