#include "fem/geometry.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace nh::fem {

namespace {

/// Voxel count along an axis of length \p extent, rounded as build() grids
/// it; 0 when the count is not finite or does not fit a long long.
std::size_t voxelsAlong(double extent, double h) {
  const double n = std::round(extent / h);
  return std::isfinite(n) && n < 0x1p63 ? static_cast<std::size_t>(n) : 0;
}

}  // namespace

double CrossbarLayout::extentX() const {
  return 2.0 * margin + static_cast<double>(cols) * electrodeWidth +
         static_cast<double>(cols - 1) * spacing;
}

double CrossbarLayout::extentY() const {
  return 2.0 * margin + static_cast<double>(rows) * electrodeWidth +
         static_cast<double>(rows - 1) * spacing;
}

double CrossbarLayout::extentZ() const {
  return tSubstrate + tBuriedOxide + tBottomElectrode + tOxide + tTopElectrode +
         tCapping;
}

double CrossbarLayout::cellCenterX(std::size_t col) const {
  return margin + static_cast<double>(col) * pitch() + 0.5 * electrodeWidth;
}

double CrossbarLayout::cellCenterY(std::size_t row) const {
  return margin + static_cast<double>(row) * pitch() + 0.5 * electrodeWidth;
}

void CrossbarLayout::validate() const {
  const auto check = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("CrossbarLayout: ") + what);
  };
  check(rows >= 1 && cols >= 1, "need >= 1 rows and cols");
  check(electrodeWidth > 0.0, "electrodeWidth must be > 0");
  check(spacing > 0.0, "spacing must be > 0");
  check(margin >= 0.0, "margin must be >= 0");
  check(voxelSize > 0.0, "voxelSize must be > 0");
  check(tSubstrate > 0.0 && tBuriedOxide > 0.0 && tBottomElectrode > 0.0 &&
            tOxide > 0.0 && tTopElectrode > 0.0 && tCapping > 0.0,
        "all layer thicknesses must be > 0");
  check(2.0 * filamentRadius <= electrodeWidth + 1e-15,
        "filament must fit inside the electrode crossing");
  check(filamentHeight <= tOxide + 1e-15, "filament taller than the oxide");
  check(electrodeWidth >= voxelSize && spacing >= voxelSize,
        "voxelSize too coarse for the lateral features");
  check(filamentHeight >= voxelSize, "voxelSize too coarse for the filament");
  // O(1) size check on the grid build() allocates.
  std::size_t voxels = 1;
  for (const double extent : {extentX(), extentY(), extentZ()}) {
    const std::size_t n = voxelsAlong(extent, voxelSize);
    check(n > 0 && n <= std::numeric_limits<std::size_t>::max() / voxels,
          "voxel grid too large (a per-axis count is not finite or does not "
          "fit, or nx*ny*nz overflows std::size_t)");
    voxels *= n;
  }
}

CrossbarModel3D CrossbarModel3D::build(const CrossbarLayout& layout) {
  layout.validate();

  CrossbarModel3D model;
  model.layout_ = layout;

  const double h = layout.voxelSize;
  const std::size_t nx = voxelsAlong(layout.extentX(), h);
  const std::size_t ny = voxelsAlong(layout.extentY(), h);
  const std::size_t nz = voxelsAlong(layout.extentZ(), h);
  model.grid_ = VoxelGrid(nx, ny, nz, h, Material::SiO2);
  VoxelGrid& grid = model.grid_;

  // Layer boundaries (z, from the substrate bottom upward).
  const double zSi = layout.tSubstrate;
  const double zBox = zSi + layout.tBuriedOxide;
  const double zBe = zBox + layout.tBottomElectrode;
  const double zOx = zBe + layout.tOxide;
  const double zTe = zOx + layout.tTopElectrode;

  // Stripe membership: bottom word lines run along x (stripes in y), top bit
  // lines run along y (stripes in x).
  const auto stripeIndex = [&](double coord) -> long long {
    // Returns the line index when the coordinate is inside a stripe, else -1.
    const double local = coord - layout.margin;
    if (local < 0.0) return -1;
    const long long idx = static_cast<long long>(std::floor(local / layout.pitch()));
    const double offset = local - static_cast<double>(idx) * layout.pitch();
    return offset <= layout.electrodeWidth ? idx : -1;
  };

  model.cells_.reserve(layout.rows * layout.cols);
  for (std::size_t r = 0; r < layout.rows; ++r) {
    for (std::size_t c = 0; c < layout.cols; ++c) {
      model.cells_.push_back(CellRegion{r, c, {}});
    }
  }

  const double rFil2 = layout.filamentRadius * layout.filamentRadius;
  for (std::size_t k = 0; k < nz; ++k) {
    const double z = grid.zCenter(k);
    for (std::size_t j = 0; j < ny; ++j) {
      const double y = grid.yCenter(j);
      const long long rowIdx = stripeIndex(y);
      const bool inRow = rowIdx >= 0 && rowIdx < static_cast<long long>(layout.rows);
      for (std::size_t i = 0; i < nx; ++i) {
        const double x = grid.xCenter(i);
        const long long colIdx = stripeIndex(x);
        const bool inCol = colIdx >= 0 && colIdx < static_cast<long long>(layout.cols);
        const std::size_t linear = grid.index(i, j, k);

        Material m = Material::SiO2;
        if (z < zSi) {
          m = Material::SiSubstrate;
        } else if (z < zBox) {
          m = Material::SiO2;
        } else if (z < zBe) {
          if (inRow) m = Material::Electrode;
        } else if (z < zOx) {
          m = Material::SwitchingOxide;
          if (inRow && inCol && z < zBe + layout.filamentHeight) {
            const double dx = x - layout.cellCenterX(static_cast<std::size_t>(colIdx));
            const double dy = y - layout.cellCenterY(static_cast<std::size_t>(rowIdx));
            if (dx * dx + dy * dy <= rFil2) {
              m = Material::Filament;
              auto& cell = model.cells_[static_cast<std::size_t>(rowIdx) * layout.cols +
                                        static_cast<std::size_t>(colIdx)];
              cell.filamentVoxels.push_back(linear);
            }
          }
        } else if (z < zTe) {
          if (inCol) m = Material::Electrode;
        }
        grid.setMaterial(i, j, k, m);
      }
    }
  }

  // Every cell must have resolved filament voxels, otherwise the voxel size
  // is too coarse for this layout.
  for (const auto& cell : model.cells_) {
    if (cell.filamentVoxels.empty()) {
      throw std::runtime_error("CrossbarModel3D: filament not resolved; refine voxelSize");
    }
  }
  return model;
}

const CellRegion& CrossbarModel3D::cell(std::size_t row, std::size_t col) const {
  return cells_.at(row * layout_.cols + col);
}

double CrossbarModel3D::cellAverage(const std::vector<double>& field,
                                    std::size_t row, std::size_t col) const {
  const CellRegion& region = cell(row, col);
  double acc = 0.0;
  for (const std::size_t v : region.filamentVoxels) acc += field[v];
  return acc / static_cast<double>(region.filamentVoxels.size());
}

}  // namespace nh::fem
