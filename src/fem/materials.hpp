#pragma once
/// \file materials.hpp
/// Material database for the 3-D crossbar model: thermal conductivity kappa
/// [W m^-1 K^-1] per material, the coefficient of the heat equation (paper
/// Eq. 1).

#include <array>
#include <cstdint>
#include <string>

namespace nh::fem {

/// Voxel material identifiers.
enum class Material : std::uint8_t {
  SiSubstrate = 0,   ///< Bulk silicon handle wafer.
  SiO2 = 1,          ///< Buried oxide / inter-line fill / capping.
  Electrode = 2,     ///< Pt word/bit lines.
  SwitchingOxide = 3,///< HfO2 cell oxide (off-filament region).
  Filament = 4,      ///< Conducting filament.
  Count = 5,
};

/// Bulk properties of one material.
struct MaterialProps {
  std::string name;
  double kappa = 0.0;  ///< Thermal conductivity [W m^-1 K^-1].
};

/// Lookup table Material -> properties.
class MaterialTable {
 public:
  /// Thin-film literature values for the Pt/HfO2/TiOx/Ti nanocrossbar stack
  /// the JART model was fitted to. Thin-film kappa is substantially below
  /// bulk (boundary scattering), which is what makes the crosstalk strong
  /// enough to matter.
  static MaterialTable defaults();

  const MaterialProps& props(Material m) const;
  MaterialProps& props(Material m);

  double kappa(Material m) const { return props(m).kappa; }

 private:
  std::array<MaterialProps, static_cast<std::size_t>(Material::Count)> table_{};
};

}  // namespace nh::fem
