#pragma once
/// \file stringutil.hpp
/// Small string helpers shared by the CSV and netlist parsers and the CLI.

#include <string>
#include <string_view>
#include <vector>

namespace nh::util {

/// Strip leading/trailing whitespace.
std::string trim(std::string_view s);
/// Split on \p delim; empty fields preserved.
std::vector<std::string> split(std::string_view s, char delim);
/// Split on any run of whitespace; empty fields dropped.
std::vector<std::string> splitWhitespace(std::string_view s);
/// Case-insensitive equality (ASCII).
bool iequals(std::string_view a, std::string_view b);
/// Lower-case copy (ASCII).
std::string toLower(std::string_view s);
/// Parse a double, throwing std::invalid_argument with context on failure.
double parseDouble(std::string_view s, std::string_view context = "");

}  // namespace nh::util
