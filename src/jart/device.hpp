#pragma once
/// \file device.hpp
/// Stateful JART device: one memristive cell with its oxygen-vacancy state
/// and filament temperature. Implements nh::spice::MemristiveModel so it can
/// be instantiated inside a circuit, and exposes the two "interface
/// variables" the paper added to the original model: the filament
/// temperature (out, to the crosstalk hub) and the additional crosstalk
/// temperature (in, from the hub).

#include "jart/model.hpp"
#include "spice/elements.hpp"

namespace nh::jart {

/// One physical cell. Copyable value type (the fast engine keeps a matrix of
/// these); cheap to copy (a handful of doubles plus shared params).
class JartDevice final : public nh::spice::MemristiveModel {
 public:
  /// \p nDiscInitial defaults to the deep-HRS end of the window.
  JartDevice(const Params& params, double ambientK,
             double nDiscInitial = -1.0);

  // ---- MemristiveModel -------------------------------------------------------
  /// Terminal current at voltage \p v with the frozen internal state
  /// (N_disc and temperature are constant within one Newton solve).
  double current(double v) const override;
  /// dI/dV from the same conduction solve (implicit differentiation; no
  /// finite difference).
  double conductance(double v) const override;
  /// Current and conductance from one conduction solve.
  nh::spice::OperatingPoint operatingPoint(double v) const override;
  /// Integrate N_disc and filament temperature over an accepted step.
  /// Substeps adaptively so state moves <= ~1% of the window per substep.
  void advance(double v, double dt) override;

  // ---- interface variables (paper Sec. IV-B) ---------------------------------
  /// Filament temperature [K]: ambient + crosstalk input + self-heating
  /// excess. The self-heating part carries the thermal RC lag; the crosstalk
  /// input inherits its lag from the source cell's own self-heating state.
  double temperature() const { return ambientK_ + crosstalkK_ + selfExcessK_; }
  /// Excess temperature above ambient [K] (crosstalk + self-heating).
  double excessTemperature() const { return crosstalkK_ + selfExcessK_; }
  /// Self-heating excess only [K] -- what the crosstalk hub propagates to
  /// neighbours (Eq. 5 superposition; see CrosstalkHub).
  double selfExcessTemperature() const { return selfExcessK_; }
  /// Additional temperature from neighbouring cells [K] (input from hub).
  void setCrosstalk(double deltaK) { crosstalkK_ = deltaK; }
  double crosstalk() const { return crosstalkK_; }
  /// Highest filament temperature seen by advance() since the last
  /// clearPeakTemperature() [K]. Traces sample between pulses (when the
  /// filament has cooled), so the peak tracker is what reveals the in-pulse
  /// temperatures of Fig. 1.
  double peakTemperature() const { return peakTemperatureK_; }
  void clearPeakTemperature() { peakTemperatureK_ = temperature(); }

  // ---- state access ------------------------------------------------------------
  double nDisc() const { return nDisc_; }
  /// Set the state directly (init files / test fixtures). Clamped to window.
  void setNDisc(double n);
  /// Normalised state in [0, 1]; 0 = deep HRS, 1 = deep LRS.
  double normalisedState() const { return model_.params().normalisedState(nDisc_); }
  double ambient() const { return ambientK_; }
  void setAmbient(double t0);
  /// Drop the self-heating excess (e.g. after a long idle period between
  /// pulse trains).
  void relaxTemperature() { selfExcessK_ = 0.0; }

  /// Convenience: put the device into a deep state.
  void setLrs() { setNDisc(model_.params().nDiscMax); }
  void setHrs() { setNDisc(model_.params().nDiscMin); }

  /// Small-signal read resistance at \p readVoltage (does not disturb state).
  double readResistance(double readVoltage = 0.2) const;

  const Model& model() const { return model_; }
  /// Last conduction solve of advance(); useful for probes/traces.
  const Conduction& lastConduction() const { return lastConduction_; }

 private:
  Model model_;
  double ambientK_;
  double crosstalkK_ = 0.0;
  double selfExcessK_ = 0.0;
  double peakTemperatureK_ = 0.0;
  double nDisc_;
  Conduction lastConduction_{};
};

}  // namespace nh::jart
