#pragma once
/// \file config.hpp
/// INI-style configuration files ("key = value" with optional [sections] and
/// '#'/';' comments). The paper's circuit framework is "parameterized based
/// on configuration files"; this is the equivalent mechanism for our stack
/// (crossbar geometry, biasing scheme, model parameters, attack settings).

#include <filesystem>
#include <map>
#include <optional>
#include <string>

namespace nh::util {

/// Parsed configuration. Keys are addressed as "section.key"; keys that
/// appear before any section header live in the "" (global) section and are
/// addressed by their bare name.
class Config {
 public:
  Config() = default;

  /// Parse from text. Throws std::runtime_error with line context on error.
  static Config fromString(const std::string& text);
  /// Load from file.
  static Config load(const std::filesystem::path& path);

  /// True when \p key exists.
  bool has(const std::string& key) const;
  /// Raw string lookup; std::nullopt when absent.
  std::optional<std::string> getString(const std::string& key) const;
  /// Typed lookups with defaults. Throw std::invalid_argument when the value
  /// exists but cannot be parsed.
  std::string getString(const std::string& key, const std::string& fallback) const;
  double getDouble(const std::string& key, double fallback) const;
  long long getInt(const std::string& key, long long fallback) const;
  bool getBool(const std::string& key, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace nh::util
