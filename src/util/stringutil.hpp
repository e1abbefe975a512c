#pragma once
/// \file stringutil.hpp
/// Small string helpers shared by the CSV writer and the nh_sweep CLI.

#include <string>
#include <string_view>
#include <vector>

namespace nh::util {

/// Strip leading/trailing whitespace.
std::string trim(std::string_view s);
/// Split on \p delim; empty fields preserved.
std::vector<std::string> split(std::string_view s, char delim);
/// Parse a double, throwing std::invalid_argument with context on failure.
double parseDouble(std::string_view s, std::string_view context = "");

}  // namespace nh::util
