#include "fem/alpha.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace nh::fem {

namespace {

/// Regression step: given powers and temperature matrices, fit Eq. 3
/// on the selected cell and Eq. 4 on every other cell.
void fitAlphas(AlphaResult& result) {
  const std::size_t rows = result.temperatureMatrices.front().rows();
  const std::size_t cols = result.temperatureMatrices.front().cols();

  std::vector<double> tSelected;
  tSelected.reserve(result.powers.size());
  for (const auto& tm : result.temperatureMatrices) {
    tSelected.push_back(tm(result.selectedRow, result.selectedCol));
  }
  const nh::util::LinearFit rthFit = nh::util::fitLinear(result.powers, tSelected);
  result.rTh = rthFit.slope;
  result.rThRSquared = rthFit.rSquared;

  result.alpha.resize(rows, cols, 0.0);
  result.alphaRSquared.resize(rows, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (r == result.selectedRow && c == result.selectedCol) {
        result.alpha(r, c) = 1.0;
        result.alphaRSquared(r, c) = rthFit.rSquared;
        continue;
      }
      std::vector<double> tCell;
      tCell.reserve(result.powers.size());
      for (const auto& tm : result.temperatureMatrices) tCell.push_back(tm(r, c));
      const nh::util::LinearFit fit = nh::util::fitLinear(result.powers, tCell);
      // Eq. 4: Tij = T0 + Rth * P * alpha_ij  ->  alpha_ij = slope_ij / Rth.
      result.alpha(r, c) = result.rTh != 0.0 ? fit.slope / result.rTh : 0.0;
      result.alphaRSquared(r, c) = fit.rSquared;
    }
  }
}

}  // namespace

nh::util::Matrix AlphaResult::predictTemperatures(double p) const {
  nh::util::Matrix out(alpha.rows(), alpha.cols(), ambientK);
  for (std::size_t r = 0; r < alpha.rows(); ++r) {
    for (std::size_t c = 0; c < alpha.cols(); ++c) {
      out(r, c) = ambientK + rTh * p * alpha(r, c);
    }
  }
  return out;
}

AlphaResult extractAlpha(const CrossbarModel3D& model,
                         const MaterialTable& materials, std::size_t selectedRow,
                         std::size_t selectedCol, const std::vector<double>& powers,
                         double ambientK, const DiffusionOptions& options) {
  const auto& layout = model.layout();
  if (selectedRow >= layout.rows || selectedCol >= layout.cols) {
    throw std::out_of_range("extractAlpha: selected cell out of range");
  }
  if (powers.size() < 2) {
    throw std::invalid_argument("extractAlpha: need >= 2 power points");
  }
  for (const double p : powers) {
    if (!std::isfinite(p) || p < 0.0) {
      throw std::invalid_argument("extractAlpha: powers must be finite and >= 0");
    }
  }

  AlphaResult result;
  result.selectedRow = selectedRow;
  result.selectedCol = selectedCol;
  result.ambientK = ambientK;
  result.powers = powers;

  // The heat equation has constant conductivities and a Dirichlet ambient,
  // so T(p) = T_amb + p * G: one solve for the rise G at zero ambient and
  // 1 W gives every power point. Solving for the rise rather than an
  // absolute field keeps T_amb out of the CG tolerance.
  ThermalScenario scenario;
  scenario.model = &model;
  scenario.materials = materials;
  scenario.ambientK = 0.0;
  scenario.cellPower = nh::util::Matrix(layout.rows, layout.cols, 0.0);
  scenario.cellPower(selectedRow, selectedCol) = 1.0;
  const ThermalSolution rise = solveThermal(scenario, options);
  if (!rise.converged()) {
    throw std::runtime_error("extractAlpha: thermal solve did not converge");
  }
  for (const double p : powers) {
    nh::util::Matrix t(layout.rows, layout.cols);
    for (std::size_t r = 0; r < layout.rows; ++r) {
      for (std::size_t c = 0; c < layout.cols; ++c) {
        t(r, c) = ambientK + p * rise.cellTemperature(r, c);
      }
    }
    result.temperatureMatrices.push_back(std::move(t));
  }

  fitAlphas(result);
  return result;
}

}  // namespace nh::fem
