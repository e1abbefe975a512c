#include "util/stringutil.hpp"

#include <cctype>
#include <stdexcept>

namespace nh::util {

std::string trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

double parseDouble(std::string_view s, std::string_view context) {
  const std::string t = trim(s);
  try {
    std::size_t pos = 0;
    const double v = std::stod(t, &pos);
    if (pos != t.size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("parseDouble: cannot parse '" + t + "'" +
                                (context.empty() ? "" : " (" + std::string(context) + ")"));
  }
}

}  // namespace nh::util
