#pragma once
/// \file configio.hpp
/// Configuration-file front end (paper Sec. IV-B: "The platform can be
/// parameterized based on configuration files"). Maps INI files onto
/// StudyConfig / AttackConfig so experiments are reproducible from plain
/// text, e.g.:
///
///   [array]
///   rows = 5
///   cols = 5
///   [geometry]
///   spacing_nm = 50
///   fem_alphas = false
///   [environment]
///   ambient_K = 300
///   [cell]
///   activation_energy_set_eV = 1.10
///   [attack]
///   pattern = single        ; single|row-pair|column-pair|cross|ring
///   amplitude_V = 1.05
///   width_ns = 50
///   duty = 0.5
///   max_pulses = 1000000

#include "core/study.hpp"
#include "util/config.hpp"

namespace nh::core {

/// Build a StudyConfig from a parsed INI config. Unknown keys are ignored;
/// malformed values and negative counts (array.rows, array.cols) throw
/// std::invalid_argument naming the key.
StudyConfig studyConfigFrom(const nh::util::Config& config);

/// Build the attack description (pattern, pulse, budget) for a study of the
/// given dimensions. The victim is the array centre. Negative counts
/// (attack.max_pulses, attack.round_robin_chunk) throw
/// std::invalid_argument naming the key.
AttackConfig attackConfigFrom(const nh::util::Config& config, std::size_t rows,
                              std::size_t cols);

/// Serialise a StudyConfig back into INI text (round-trips through
/// studyConfigFrom for the supported keys).
std::string toConfigText(const StudyConfig& config);

/// Parse a pattern name ("single", "row-pair", ...). Throws on unknown.
AttackPattern patternFromName(const std::string& name);

}  // namespace nh::core
