#include "spice/netlist_parser.hpp"

#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "spice/elements.hpp"
#include "util/stringutil.hpp"

namespace nh::spice {

using nh::util::iequals;
using nh::util::split;
using nh::util::splitWhitespace;
using nh::util::toLower;
using nh::util::trim;

double parseSpiceValue(const std::string& token) {
  const std::string t = toLower(trim(token));
  if (t.empty()) throw std::invalid_argument("parseSpiceValue: empty value");

  // Split the numeric prefix from the suffix.
  std::size_t pos = 0;
  while (pos < t.size() &&
         (std::isdigit(static_cast<unsigned char>(t[pos])) || t[pos] == '.' ||
          t[pos] == '+' || t[pos] == '-' ||
          ((t[pos] == 'e') && pos + 1 < t.size() &&
           (std::isdigit(static_cast<unsigned char>(t[pos + 1])) ||
            t[pos + 1] == '+' || t[pos + 1] == '-')))) {
    if (t[pos] == 'e') ++pos;  // consume exponent marker, then sign/digits
    ++pos;
  }
  const std::string number = t.substr(0, pos);
  const std::string suffix = t.substr(pos);

  double value = 0.0;
  try {
    std::size_t used = 0;
    value = std::stod(number, &used);
    if (used != number.size()) throw std::invalid_argument("trailing");
  } catch (const std::exception&) {
    throw std::invalid_argument("parseSpiceValue: cannot parse '" + token + "'");
  }

  if (suffix.empty()) return value;
  if (suffix == "f") return value * 1e-15;
  if (suffix == "p") return value * 1e-12;
  if (suffix == "n") return value * 1e-9;
  if (suffix == "u") return value * 1e-6;
  if (suffix == "m") return value * 1e-3;
  if (suffix == "k") return value * 1e3;
  if (suffix == "meg") return value * 1e6;
  if (suffix == "g") return value * 1e9;
  if (suffix == "t") return value * 1e12;
  throw std::invalid_argument("parseSpiceValue: unknown suffix '" + suffix +
                              "' in '" + token + "'");
}

namespace {

[[noreturn]] void fail(std::size_t lineNo, const std::string& line,
                       const std::string& what) {
  throw std::runtime_error("netlist line " + std::to_string(lineNo) + ": " +
                           what + " ('" + line + "')");
}

NodeId nodeFor(Circuit& circuit, const std::string& name) {
  if (name == "0" || iequals(name, "gnd")) return circuit.ground();
  return circuit.node(name);
}

/// Extract the argument list of "FN(a b c)" or "FN(a, b, c)".
std::vector<double> functionArgs(const std::string& text, std::size_t lineNo,
                                 const std::string& line) {
  const auto open = text.find('(');
  const auto close = text.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open) {
    fail(lineNo, line, "malformed source function '" + text + "'");
  }
  std::string inner = text.substr(open + 1, close - open - 1);
  for (char& c : inner) {
    if (c == ',') c = ' ';
  }
  std::vector<double> args;
  for (const auto& tok : splitWhitespace(inner)) args.push_back(parseSpiceValue(tok));
  return args;
}

std::unique_ptr<Waveform> parseSourceWaveform(const std::vector<std::string>& fields,
                                              std::size_t lineNo,
                                              const std::string& line) {
  // fields[3..] describe the waveform. Accept: "DC <v>", bare "<v>",
  // "PULSE(...)", "PWL(...)" -- the function text may be split across
  // whitespace, so re-join first.
  std::string spec;
  for (std::size_t i = 3; i < fields.size(); ++i) {
    if (i > 3) spec += " ";
    spec += fields[i];
  }
  const std::string lowered = toLower(trim(spec));
  if (lowered.empty()) fail(lineNo, line, "missing source value");

  if (lowered.rfind("pulse", 0) == 0) {
    const auto a = functionArgs(spec, lineNo, line);
    if (a.size() < 7 || a.size() > 8) {
      fail(lineNo, line, "PULSE needs v0 v1 delay rise fall width period [count]");
    }
    PulseSpec p;
    p.base = a[0];
    p.amplitude = a[1];
    p.delay = a[2];
    p.rise = a[3];
    p.fall = a[4];
    p.width = a[5];
    p.period = a[6];
    if (a.size() == 8) {
      // Whole numbers in [-1, 2^53] convert exactly; anything else (2.5,
      // 1e30, NaN) would truncate or overflow the cast.
      const double count = a[7];
      if (!(count >= -1.0 && count <= 9007199254740992.0 &&
            std::floor(count) == count)) {
        fail(lineNo, line, "PULSE count must be a whole number in [-1, 2^53]");
      }
      p.count = static_cast<long long>(count);
    }
    return std::make_unique<PulseWaveform>(p);
  }
  if (lowered.rfind("pwl", 0) == 0) {
    const auto a = functionArgs(spec, lineNo, line);
    if (a.size() < 2 || a.size() % 2 != 0) {
      fail(lineNo, line, "PWL needs pairs t0 v0 t1 v1 ...");
    }
    std::vector<double> times, values;
    for (std::size_t i = 0; i < a.size(); i += 2) {
      times.push_back(a[i]);
      values.push_back(a[i + 1]);
    }
    return std::make_unique<PwlWaveform>(std::move(times), std::move(values));
  }
  // "DC <v>" or a bare value.
  const auto tokens = splitWhitespace(lowered);
  if (tokens.size() == 2 && tokens[0] == "dc") {
    return std::make_unique<DcWaveform>(parseSpiceValue(tokens[1]));
  }
  if (tokens.size() == 1) {
    return std::make_unique<DcWaveform>(parseSpiceValue(tokens[0]));
  }
  fail(lineNo, line, "unrecognised source specification '" + spec + "'");
}

}  // namespace

NetlistSummary parseNetlist(Circuit& circuit, const std::string& text) {
  NetlistSummary summary;
  std::istringstream in(text);
  std::string line;
  std::size_t lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    // Comments: whole-line '*' (SPICE style) or trailing ';'.
    const auto semi = line.find(';');
    if (semi != std::string::npos) line.erase(semi);
    const std::string t = trim(line);
    if (t.empty() || t[0] == '*') continue;
    if (t[0] == '.') {
      if (iequals(t, ".end")) break;
      fail(lineNo, line, "unsupported directive '" + t + "'");
    }

    const auto fields = splitWhitespace(t);
    if (fields.size() < 3) fail(lineNo, line, "too few fields");
    const std::string& name = fields[0];
    const char kind = static_cast<char>(std::tolower(static_cast<unsigned char>(name[0])));

    switch (kind) {
      case 'r': {
        if (fields.size() != 4) fail(lineNo, line, "R needs: name n+ n- value");
        circuit.emplace<Resistor>(name, nodeFor(circuit, fields[1]),
                                  nodeFor(circuit, fields[2]),
                                  parseSpiceValue(fields[3]));
        ++summary.resistors;
        break;
      }
      case 'c': {
        if (fields.size() != 4) fail(lineNo, line, "C needs: name n+ n- value");
        circuit.emplace<Capacitor>(name, nodeFor(circuit, fields[1]),
                                   nodeFor(circuit, fields[2]),
                                   parseSpiceValue(fields[3]));
        ++summary.capacitors;
        break;
      }
      case 'v': {
        if (fields.size() < 4) fail(lineNo, line, "V needs: name n+ n- spec");
        circuit.emplace<VoltageSource>(name, nodeFor(circuit, fields[1]),
                                       nodeFor(circuit, fields[2]),
                                       parseSourceWaveform(fields, lineNo, line));
        ++summary.voltageSources;
        break;
      }
      case 'i': {
        if (fields.size() < 4) fail(lineNo, line, "I needs: name n+ n- spec");
        circuit.emplace<CurrentSource>(name, nodeFor(circuit, fields[1]),
                                       nodeFor(circuit, fields[2]),
                                       parseSourceWaveform(fields, lineNo, line));
        ++summary.currentSources;
        break;
      }
      case 'd': {
        if (fields.size() < 3 || fields.size() > 5) {
          fail(lineNo, line, "D needs: name anode cathode [Is] [n]");
        }
        const double is = fields.size() >= 4 ? parseSpiceValue(fields[3]) : 1e-14;
        const double n = fields.size() == 5 ? parseSpiceValue(fields[4]) : 1.0;
        circuit.emplace<Diode>(name, nodeFor(circuit, fields[1]),
                               nodeFor(circuit, fields[2]), is, n);
        ++summary.diodes;
        break;
      }
      default:
        fail(lineNo, line, std::string("unsupported element kind '") + name[0] + "'");
    }
  }
  return summary;
}

}  // namespace nh::spice
