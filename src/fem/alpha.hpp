#pragma once
/// \file alpha.hpp
/// Thermal-crosstalk coefficient ("alpha value") extraction, implementing
/// the paper's Eq. 3 / Eq. 4 procedure: sweep the dissipated power of a
/// selected cell, record the temperature matrix of the whole array for every
/// power point, then
///   T(P)    = T0 + Rth * P            (selected cell -> Rth by regression)
///   Tij(P)  = T0 + Rth * P * alpha_ij (every neighbour -> alpha_ij)
/// The heat equation is linear (constant conductivities, Dirichlet ambient),
/// so T(P) = T0 + P * G: extractAlpha solves once for the 1 W rise G and
/// fills every power point from it, which makes R^2 of its fits 1 by
/// construction. The fits still run and report the paper's quantities; the
/// paper's per-power-point solves plus regression live on as the test
/// oracle for the superposition.

#include <vector>

#include "fem/thermal.hpp"
#include "util/linreg.hpp"
#include "util/matrix.hpp"

namespace nh::fem {

/// Result of an alpha extraction around one selected cell.
struct AlphaResult {
  std::size_t selectedRow = 0;
  std::size_t selectedCol = 0;
  double ambientK = 300.0;
  /// Thermal resistance of the selected cell [K/W] (Eq. 3 slope).
  double rTh = 0.0;
  double rThRSquared = 0.0;
  /// alpha_ij per cell (selected cell reads 1 by construction).
  nh::util::Matrix alpha;
  /// R^2 of each neighbour fit.
  nh::util::Matrix alphaRSquared;
  /// The swept powers [W] and the cell-temperature matrix per power point.
  std::vector<double> powers;
  std::vector<nh::util::Matrix> temperatureMatrices;

  /// Temperature matrix predicted by the linear model at power \p p [W].
  nh::util::Matrix predictTemperatures(double p) const;
};

/// Extract Rth and the alpha matrix for the selected cell's dissipated
/// \p powers: one thermal solve per call, whatever the number of power
/// points. Powers must be finite and non-negative.
AlphaResult extractAlpha(const CrossbarModel3D& model,
                         const MaterialTable& materials, std::size_t selectedRow,
                         std::size_t selectedCol, const std::vector<double>& powers,
                         double ambientK, const DiffusionOptions& options = {});

}  // namespace nh::fem
