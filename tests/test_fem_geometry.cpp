#include "fem/geometry.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace nh::fem {
namespace {

CrossbarLayout smallLayout() {
  CrossbarLayout layout;
  layout.rows = 3;
  layout.cols = 3;
  layout.spacing = 50e-9;
  layout.margin = 20e-9;
  layout.voxelSize = 5e-9;
  return layout;
}

TEST(CrossbarLayout, DerivedDimensions) {
  const CrossbarLayout layout = smallLayout();
  EXPECT_DOUBLE_EQ(layout.pitch(), 80e-9);
  // 2*20 + 3*30 + 2*50 = 230 nm.
  EXPECT_NEAR(layout.extentX(), 230e-9, 1e-15);
  EXPECT_NEAR(layout.extentY(), 230e-9, 1e-15);
  // 60+40+20+10+20+30 = 180 nm.
  EXPECT_NEAR(layout.extentZ(), 180e-9, 1e-15);
  EXPECT_NEAR(layout.cellCenterX(0), 35e-9, 1e-15);
  EXPECT_NEAR(layout.cellCenterX(1), 115e-9, 1e-15);
}

TEST(CrossbarLayout, ValidationCatchesBadParameters) {
  CrossbarLayout layout = smallLayout();
  layout.filamentRadius = 20e-9;  // diameter 40 > electrode width 30
  EXPECT_THROW(layout.validate(), std::invalid_argument);

  layout = smallLayout();
  layout.filamentHeight = 20e-9;  // taller than oxide (10 nm)
  EXPECT_THROW(layout.validate(), std::invalid_argument);

  layout = smallLayout();
  layout.voxelSize = 40e-9;  // coarser than the electrode width
  EXPECT_THROW(layout.validate(), std::invalid_argument);

  layout = smallLayout();
  layout.spacing = 0.0;
  EXPECT_THROW(layout.validate(), std::invalid_argument);

  layout = smallLayout();
  layout.rows = 0;
  EXPECT_THROW(layout.validate(), std::invalid_argument);
}

TEST(CrossbarLayout, RejectsVoxelGridsThatOverflow) {
  // Per-axis count not finite (inf), not representable (1e21 m / 5 nm ~ 8e29
  // per lateral axis), or each fits but nx*ny*nz wraps std::size_t (10 m:
  // ~8e9 per lateral axis). build() must throw before allocating anything.
  for (const double spacing :
       {std::numeric_limits<double>::infinity(), 1e21, 10.0}) {
    CrossbarLayout layout = smallLayout();
    layout.spacing = spacing;
    for (const bool viaBuild : {false, true}) {
      try {
        if (viaBuild) {
          CrossbarModel3D::build(layout);
        } else {
          layout.validate();
        }
        ADD_FAILURE() << "spacing " << spacing << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("voxel grid too large"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(CrossbarModel3D, BuildsExpectedGridSize) {
  const auto model = CrossbarModel3D::build(smallLayout());
  EXPECT_EQ(model.grid().nx(), 46u);  // 230/5
  EXPECT_EQ(model.grid().ny(), 46u);
  EXPECT_EQ(model.grid().nz(), 36u);  // 180/5
  EXPECT_EQ(model.cellCount(), 9u);
}

TEST(CrossbarModel3D, EveryCellHasFilamentVoxels) {
  const auto model = CrossbarModel3D::build(smallLayout());
  const std::size_t reference = model.cell(0, 0).filamentVoxels.size();
  EXPECT_GT(reference, 0u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(model.cell(r, c).filamentVoxels.size(), reference)
          << "cell (" << r << "," << c << ")";
      EXPECT_EQ(model.cell(r, c).row, r);
      EXPECT_EQ(model.cell(r, c).col, c);
    }
  }
}

TEST(CrossbarModel3D, FilamentVoxelsAreFilamentMaterial) {
  const auto model = CrossbarModel3D::build(smallLayout());
  for (const std::size_t v : model.cell(1, 1).filamentVoxels) {
    EXPECT_EQ(model.grid().material(v), Material::Filament);
  }
  EXPECT_EQ(model.grid().countMaterial(Material::Filament),
            9u * model.cell(0, 0).filamentVoxels.size());
}

TEST(CrossbarModel3D, ElectrodeLinesAreDisjointAndMetal) {
  // Word lines: y inside row r's stripe, z inside the bottom-electrode layer.
  // Bit lines: x inside column c's stripe, z inside the top-electrode layer.
  // The cell oxide separates the two z ranges, and no other voxel is metal.
  const CrossbarLayout layout = smallLayout();
  const auto model = CrossbarModel3D::build(layout);
  const VoxelGrid& grid = model.grid();
  const double zWord0 = layout.tSubstrate + layout.tBuriedOxide;
  const double zWord1 = zWord0 + layout.tBottomElectrode;
  const double zBit0 = zWord1 + layout.tOxide;
  const double zBit1 = zBit0 + layout.tTopElectrode;
  ASSERT_LT(zWord1, zBit0);
  const auto inStripe = [&](double coord, std::size_t line) {
    const double lo = layout.margin + static_cast<double>(line) * layout.pitch();
    return coord > lo && coord < lo + layout.electrodeWidth;
  };

  std::size_t wordVoxels[3] = {}, bitVoxels[3] = {};
  for (std::size_t k = 0; k < grid.nz(); ++k) {
    const double z = grid.zCenter(k);
    for (std::size_t j = 0; j < grid.ny(); ++j) {
      for (std::size_t i = 0; i < grid.nx(); ++i) {
        for (std::size_t line = 0; line < 3; ++line) {
          if (z > zWord0 && z < zWord1 && inStripe(grid.yCenter(j), line)) {
            EXPECT_EQ(grid.material(i, j, k), Material::Electrode);
            ++wordVoxels[line];
          }
          if (z > zBit0 && z < zBit1 && inStripe(grid.xCenter(i), line)) {
            EXPECT_EQ(grid.material(i, j, k), Material::Electrode);
            ++bitVoxels[line];
          }
        }
      }
    }
  }
  std::size_t lineVoxels = 0;
  for (std::size_t line = 0; line < 3; ++line) {
    EXPECT_GT(wordVoxels[line], 0u);
    EXPECT_GT(bitVoxels[line], 0u);
    lineVoxels += wordVoxels[line] + bitVoxels[line];
  }
  EXPECT_EQ(grid.countMaterial(Material::Electrode), lineVoxels);
}

TEST(CrossbarModel3D, CellAverage) {
  const auto model = CrossbarModel3D::build(smallLayout());
  std::vector<double> field(model.grid().voxelCount(), 1.0);
  for (const std::size_t v : model.cell(2, 2).filamentVoxels) field[v] = 5.0;
  EXPECT_DOUBLE_EQ(model.cellAverage(field, 2, 2), 5.0);
  EXPECT_DOUBLE_EQ(model.cellAverage(field, 0, 0), 1.0);
}

TEST(CrossbarModel3D, SpacingChangesGridExtent) {
  CrossbarLayout wide = smallLayout();
  wide.spacing = 90e-9;
  const auto narrow = CrossbarModel3D::build(smallLayout());
  const auto broad = CrossbarModel3D::build(wide);
  EXPECT_GT(broad.grid().nx(), narrow.grid().nx());
}

}  // namespace
}  // namespace nh::fem
