#include "fem/materials.hpp"

#include <stdexcept>

namespace nh::fem {

MaterialTable MaterialTable::defaults() {
  MaterialTable t;
  // Thin-film values (boundary scattering suppresses kappa vs bulk).
  t.props(Material::SiSubstrate) = {"Si", 90.0};
  t.props(Material::SiO2) = {"SiO2", 1.2};
  t.props(Material::Electrode) = {"Pt", 40.0};
  t.props(Material::SwitchingOxide) = {"HfO2", 0.8};
  t.props(Material::Filament) = {"filament", 4.0};
  return t;
}

const MaterialProps& MaterialTable::props(Material m) const {
  const auto i = static_cast<std::size_t>(m);
  if (i >= table_.size()) throw std::out_of_range("MaterialTable::props");
  return table_[i];
}

MaterialProps& MaterialTable::props(Material m) {
  const auto i = static_cast<std::size_t>(m);
  if (i >= table_.size()) throw std::out_of_range("MaterialTable::props");
  return table_[i];
}

}  // namespace nh::fem
