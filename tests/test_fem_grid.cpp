#include "fem/grid.hpp"

#include <gtest/gtest.h>

#include "fem/materials.hpp"

namespace nh::fem {
namespace {

TEST(VoxelGrid, IndexRoundTrip) {
  const VoxelGrid grid(4, 5, 6, 1e-9);
  for (std::size_t k = 0; k < 6; ++k) {
    for (std::size_t j = 0; j < 5; ++j) {
      for (std::size_t i = 0; i < 4; ++i) {
        const std::size_t linear = grid.index(i, j, k);
        const Voxel v = grid.voxel(linear);
        EXPECT_EQ(v.i, i);
        EXPECT_EQ(v.j, j);
        EXPECT_EQ(v.k, k);
      }
    }
  }
  EXPECT_EQ(grid.voxelCount(), 120u);
}

TEST(VoxelGrid, IndexIsXFastest) {
  const VoxelGrid grid(4, 5, 6, 1e-9);
  EXPECT_EQ(grid.index(1, 0, 0), 1u);
  EXPECT_EQ(grid.index(0, 1, 0), 4u);
  EXPECT_EQ(grid.index(0, 0, 1), 20u);
}

TEST(VoxelGrid, CentersAtHalfVoxel) {
  const VoxelGrid grid(2, 2, 2, 10e-9);
  EXPECT_DOUBLE_EQ(grid.xCenter(0), 5e-9);
  EXPECT_DOUBLE_EQ(grid.yCenter(1), 15e-9);
  EXPECT_DOUBLE_EQ(grid.zCenter(0), 5e-9);
}

TEST(VoxelGrid, MaterialSetAndCount) {
  VoxelGrid grid(3, 3, 3, 1e-9, Material::SiO2);
  EXPECT_EQ(grid.countMaterial(Material::SiO2), 27u);
  grid.setMaterial(1, 1, 1, Material::Filament);
  EXPECT_EQ(grid.countMaterial(Material::Filament), 1u);
  EXPECT_EQ(grid.countMaterial(Material::SiO2), 26u);
  EXPECT_EQ(grid.material(1, 1, 1), Material::Filament);
}

TEST(VoxelGrid, RejectsInvalidConstruction) {
  EXPECT_THROW(VoxelGrid(0, 1, 1, 1e-9), std::invalid_argument);
  EXPECT_THROW(VoxelGrid(1, 1, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(VoxelGrid(1, 1, 1, -1e-9), std::invalid_argument);
}

TEST(MaterialTable, DefaultsArePhysical) {
  const MaterialTable t = MaterialTable::defaults();
  // Metal conducts heat far better than the oxides.
  EXPECT_GT(t.kappa(Material::Electrode), 10.0 * t.kappa(Material::SiO2));
  EXPECT_GT(t.kappa(Material::SiSubstrate), t.kappa(Material::SiO2));
  EXPECT_GT(t.kappa(Material::Filament), t.kappa(Material::SwitchingOxide));
}

}  // namespace
}  // namespace nh::fem
