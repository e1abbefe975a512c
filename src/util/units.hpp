#pragma once
/// \file units.hpp
/// Physical constants (SI, CODATA 2018 exact values where defined) and unit
/// helpers used throughout the NeuroHammer simulation stack.

namespace nh::util {

/// Boltzmann constant [J/K].
inline constexpr double kBoltzmann = 1.380649e-23;
/// Elementary charge [C].
inline constexpr double kElementaryCharge = 1.602176634e-19;
/// Boltzmann constant expressed in eV/K (k_B / e).
inline constexpr double kBoltzmannEv = kBoltzmann / kElementaryCharge;
/// Free-space Richardson constant [A m^-2 K^-2].
inline constexpr double kRichardson = 1.20173e6;
/// Stefan-Boltzmann constant [W m^-2 K^-4].
inline constexpr double kStefanBoltzmann = 5.670374419e-8;
/// Standard ambient temperature used as the default T0 [K].
inline constexpr double kRoomTemperature = 300.0;
/// Absolute zero in Celsius offset [K].
inline constexpr double kCelsiusOffset = 273.15;
/// Pi, spelled out so we do not depend on <numbers> in every header.
inline constexpr double kPi = 3.14159265358979323846;

// ---- unit multipliers (value * unit -> SI) --------------------------------

inline constexpr double kNano = 1e-9;
inline constexpr double kMicro = 1e-6;
inline constexpr double kMilli = 1e-3;
inline constexpr double kKilo = 1e3;
inline constexpr double kMega = 1e6;
inline constexpr double kGiga = 1e9;

/// Convert nanometres to metres.
constexpr double nm(double v) { return v * kNano; }
/// Convert nanoseconds to seconds.
constexpr double ns(double v) { return v * kNano; }
/// Convert microseconds to seconds.
constexpr double us(double v) { return v * kMicro; }
/// Convert milliwatts to watts.
constexpr double mW(double v) { return v * kMilli; }
/// Convert electron-volts to joules.
constexpr double eV(double v) { return v * kElementaryCharge; }
/// Convert degrees Celsius to kelvin.
constexpr double celsius(double v) { return v + kCelsiusOffset; }

/// Thermal voltage k_B*T/e [V] at temperature \p temperatureK.
constexpr double thermalVoltage(double temperatureK) {
  return kBoltzmannEv * temperatureK;
}

}  // namespace nh::util
