#include "util/config.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/stringutil.hpp"

namespace nh::util {

Config Config::fromString(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string line;
  std::string section;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    // Strip comments (full-line or trailing).
    const auto hash = line.find_first_of("#;");
    if (hash != std::string::npos) line.erase(hash);
    const std::string t = trim(line);
    if (t.empty()) continue;
    if (t.front() == '[') {
      if (t.back() != ']') {
        throw std::runtime_error("Config: malformed section at line " + std::to_string(lineNo));
      }
      section = trim(t.substr(1, t.size() - 2));
      continue;
    }
    const auto eq = t.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("Config: expected key=value at line " + std::to_string(lineNo));
    }
    const std::string key = trim(t.substr(0, eq));
    const std::string value = trim(t.substr(eq + 1));
    if (key.empty()) {
      throw std::runtime_error("Config: empty key at line " + std::to_string(lineNo));
    }
    cfg.values_[section.empty() ? key : section + "." + key] = value;
  }
  return cfg;
}

Config Config::load(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config::load: cannot open " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return fromString(buf.str());
}

bool Config::has(const std::string& key) const { return values_.count(key) > 0; }

std::optional<std::string> Config::getString(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Config::getString(const std::string& key, const std::string& fallback) const {
  return getString(key).value_or(fallback);
}

double Config::getDouble(const std::string& key, double fallback) const {
  const auto v = getString(key);
  return v ? parseDouble(*v, key) : fallback;
}

long long Config::getInt(const std::string& key, long long fallback) const {
  const auto v = getString(key);
  return v ? parseInt(*v, key) : fallback;
}

bool Config::getBool(const std::string& key, bool fallback) const {
  const auto v = getString(key);
  if (!v) return fallback;
  const std::string s = toLower(trim(*v));
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw std::invalid_argument("Config: cannot parse bool '" + *v + "' for key " + key);
}

}  // namespace nh::util
