#pragma once
/// \file sneak.hpp
/// Sneak-path analysis of the passive crossbar. The paper's experiments
/// drive all unselected lines at V/2 "to minimize the sneak-path currents";
/// this module quantifies exactly that: the parasitic current through
/// unselected cells, the current a sense amplifier sees on the selected bit
/// line, and the resulting read margin -- as a function of biasing scheme,
/// array size and stored data pattern.

#include <cstddef>

#include "xbar/array.hpp"

namespace nh::xbar {

/// Read-path biasing of the unselected lines.
enum class ReadScheme {
  FloatingLines,  ///< Unselected lines left floating (cheapest, worst sneak).
  HalfBias,       ///< Unselected lines at vRead/2 (the paper's scheme).
};

/// One analysis outcome.
struct SneakAnalysis {
  double selectedCurrent = 0.0;   ///< Through the selected cell [A].
  double bitLineCurrent = 0.0;    ///< Into the selected bit-line driver [A]
                                  ///< (what the sense amplifier integrates).
  double sneakCurrent = 0.0;      ///< bitLineCurrent - selectedCurrent [A].
  double halfSelectPower = 0.0;   ///< Power burned in non-selected cells [W]
                                  ///< (the price of the V/2 scheme).
  /// Largest |voltage| across any non-selected cell [V]. This is what the
  /// V/2 scheme actually bounds: with floating lines the network divides
  /// the full drive voltage across sneak chains, disturb-stressing
  /// unselected cells; with V/2 the bound is vDrive/2 by construction.
  double maxUnselectedVoltage = 0.0;
};

/// Solve the resistive crossbar network for one read and decompose the
/// currents. The array's device states are used as stored data; the array
/// is not modified. A DC solve that does not converge throws
/// nh::util::SolverError("spice.newton").
SneakAnalysis analyzeSneak(const CrossbarArray& array, std::size_t selRow,
                           std::size_t selCol, double vRead, ReadScheme scheme);

/// Worst-case read margin: the relative bit-line-current separation between
/// reading an LRS and an HRS selected cell when every other cell stores LRS
/// (maximum sneak). Margin = (I_lrs - I_hrs) / I_lrs; a sense amplifier
/// needs a healthy positive margin.
struct ReadMargin {
  double iSelectedLrs = 0.0;
  double iSelectedHrs = 0.0;
  double margin = 0.0;
};
ReadMargin worstCaseReadMargin(const ArrayConfig& config, double vRead,
                               ReadScheme scheme);

}  // namespace nh::xbar
