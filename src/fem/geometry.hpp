#pragma once
/// \file geometry.hpp
/// Parametric 3-D geometry of the memristive crossbar (paper Fig. 2b):
/// Si/SiO2 substrate, Pt bottom word lines (along x), HfO2 cell oxide with a
/// conducting filament at every crossing (default: diameter 30 nm, height
/// 5 nm), Pt top bit lines (along y), SiO2 capping. The electrode spacing --
/// the distance between electrodes of adjacent cells -- is the sweep
/// parameter of Fig. 3b.

#include <vector>

#include "fem/grid.hpp"

namespace nh::fem {

/// All geometric parameters [m]. Defaults reproduce the paper's setup.
struct CrossbarLayout {
  std::size_t rows = 5;
  std::size_t cols = 5;
  double electrodeWidth = 30e-9;   ///< Line width (matches filament diameter).
  double spacing = 50e-9;          ///< Electrode spacing (Fig. 3b: 10..90 nm).
  double margin = 40e-9;           ///< Lateral margin around the array.
  double tSubstrate = 60e-9;       ///< Si handle thickness in the model box.
  double tBuriedOxide = 40e-9;     ///< SiO2 between Si and bottom lines.
  double tBottomElectrode = 20e-9; ///< Pt word-line thickness.
  double tOxide = 10e-9;           ///< HfO2 cell-oxide thickness.
  double tTopElectrode = 20e-9;    ///< Pt bit-line thickness.
  double tCapping = 30e-9;         ///< SiO2 capping thickness.
  double filamentRadius = 15e-9;   ///< Fig. 2b: diameter 30 nm.
  double filamentHeight = 5e-9;    ///< Fig. 2b: height 5 nm.
  double voxelSize = 5e-9;         ///< Discretisation resolution.

  /// Cell pitch = electrode width + spacing.
  double pitch() const { return electrodeWidth + spacing; }
  /// Lateral extents of the simulation box [m].
  double extentX() const;
  double extentY() const;
  /// Vertical extent (sum of layer thicknesses) [m].
  double extentZ() const;

  /// Centre coordinate of cell (row, col) [m].
  double cellCenterX(std::size_t col) const;
  double cellCenterY(std::size_t row) const;

  /// Throws std::invalid_argument on inconsistent parameters (zero sizes,
  /// filament larger than the cell, layers not resolvable by the voxel
  /// size, a voxel grid whose size overflows std::size_t, ...).
  void validate() const;
};

/// A cell's voxel bookkeeping inside the built grid.
struct CellRegion {
  std::size_t row = 0;
  std::size_t col = 0;
  std::vector<std::size_t> filamentVoxels;  ///< Linear voxel indices.
};

/// The voxelised crossbar: grid plus per-cell filament voxel sets.
class CrossbarModel3D {
 public:
  /// Voxelise \p layout. Throws on invalid layouts.
  static CrossbarModel3D build(const CrossbarLayout& layout);

  const CrossbarLayout& layout() const { return layout_; }
  const VoxelGrid& grid() const { return grid_; }
  VoxelGrid& grid() { return grid_; }

  /// Cell bookkeeping; cells are indexed row-major.
  const CellRegion& cell(std::size_t row, std::size_t col) const;
  std::size_t cellCount() const { return cells_.size(); }

  /// Mean value of \p field over the filament voxels of cell (row, col).
  double cellAverage(const std::vector<double>& field, std::size_t row,
                     std::size_t col) const;

 private:
  CrossbarLayout layout_;
  VoxelGrid grid_;
  std::vector<CellRegion> cells_;
};

}  // namespace nh::fem
