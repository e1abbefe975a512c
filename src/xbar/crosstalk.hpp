#pragma once
/// \file crosstalk.hpp
/// The crosstalk hub (paper Sec. IV-B): computes the additional temperature
/// of every cell from the filament temperatures of all other cells,
///   T_in,i = sum_j alpha_ij * dT_j   (Eq. 5, applied to excess temperature)
/// using the alpha values extracted from the crossbar FEM simulation
/// (Sec. IV-A). Alphas are stored as a translation-invariant table over the
/// relative offset (dRow, dCol) around a hammered cell, which is exactly
/// what the centre-cell extraction of Fig. 2a provides.

#include <cstddef>
#include <vector>

#include "fem/alpha.hpp"
#include "util/matrix.hpp"

namespace nh::xbar {

/// Translation-invariant thermal-coupling coefficients alpha(dRow, dCol).
class AlphaTable {
 public:
  AlphaTable() = default;

  /// Build from a FEM extraction around cell (selectedRow, selectedCol):
  /// the table offset (dr, dc) takes the value alpha(selected+dr,
  /// selected+dc). Also captures the extracted R_th.
  static AlphaTable fromExtraction(const fem::AlphaResult& extraction);

  /// Closed-form fallback calibrated against the FEM extraction (see
  /// DESIGN.md): nearest same-line coupling decays exponentially with the
  /// electrode spacing, off-line (diagonal) coupling is weaker, and the
  /// coupling decays with Chebyshev distance. Useful for tests and for
  /// sweeps where re-running the FEM would dominate runtime.
  static AlphaTable analytic(double spacingMeters);

  /// alpha for relative offset; 0 at (0,0) and outside the table.
  double at(long long dRow, long long dCol) const;
  /// Largest tabulated |offset| in each direction.
  long long radius() const { return radius_; }
  /// R_th of the hammered cell [K/W]; 0 when unknown (analytic table keeps
  /// the compact-model default).
  double rTh() const { return rTh_; }
  void setRTh(double rth) { rTh_ = rth; }
  /// Sum of all coefficients (stability requires < 1).
  double totalCoupling() const;

  /// Directly set a coefficient (tests, ablations).
  void set(long long dRow, long long dCol, double value);
  /// Zero out all couplings beyond Chebyshev distance \p maxDistance
  /// (truncation-radius ablation).
  void truncate(long long maxDistance);

 private:
  explicit AlphaTable(long long radius);
  std::size_t index(long long dRow, long long dCol) const;
  long long radius_ = 0;
  std::vector<double> table_;  ///< (2r+1)^2 entries, row-major.
  double rTh_ = 0.0;
};

/// The hub itself: Eq. 5 over a rows x cols array.
class CrosstalkHub {
 public:
  CrosstalkHub(std::size_t rows, std::size_t cols, AlphaTable table);

  const AlphaTable& table() const { return table_; }
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Eq. 5: per-cell additional temperature from the per-cell *self*-heating
  /// excess temperatures \p excess (both rows x cols). Superposition of the
  /// single-source FEM solutions the alphas were extracted from; see the
  /// implementation note on why total-temperature feedback would be wrong.
  nh::util::Matrix inputTemperatures(const nh::util::Matrix& excess) const;
  /// Same, written into \p tin (resized to rows x cols only when its shape
  /// differs, so a caller-kept workspace never reallocates). \p tin must not
  /// alias \p excess.
  void inputTemperatures(const nh::util::Matrix& excess, nh::util::Matrix& tin) const;

  /// Steady-state total excess temperature per cell for a static per-cell
  /// power map: excess_i = rth*P_i + sum_j alpha_ij * rth*P_j.
  nh::util::Matrix solveCoupledExcess(const nh::util::Matrix& cellPower,
                                      double rth) const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  AlphaTable table_;
};

}  // namespace nh::xbar
