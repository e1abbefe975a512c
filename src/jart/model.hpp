#pragma once
/// \file model.hpp
/// Stateless evaluation routines of the JART-style VCM compact model:
/// conduction (I-V at given state and temperature), ionic switching rate
/// (dN_disc/dt) and the quasi-static thermal equation (paper Eq. 6).
/// State integration lives in device.hpp / kinetics.hpp.

#include "jart/params.hpp"

namespace nh::jart {

/// Result of one conduction solve at fixed (V, N_disc, T).
struct Conduction {
  double current = 0.0;         ///< Terminal current [A] (positive for V > 0).
  double conductance = 0.0;     ///< Terminal dI/dV [S] at fixed state.
  double vSchottky = 0.0;       ///< Share of V across the interface [V].
  double vDisc = 0.0;           ///< Share across the disc [V] (drives kinetics).
  double powerFilament = 0.0;   ///< Power dissipated in the filament region
                                ///< (disc + plug + interface, excl. series R) [W].
};

/// Sign convention: V > 0 is the SET polarity (drives the cell toward LRS);
/// V < 0 is the RESET polarity.
class Model {
 public:
  explicit Model(Params params);

  const Params& params() const { return params_; }

  /// Solve the internal voltage division vs + R_ohmic * I_sch(vs) = V and
  /// return terminal current, the disc field needed by the kinetics, and
  /// dI/dV. Monotone 1-D Newton on the analytic Schottky slope g_s with a
  /// bisection safeguard. The conductance follows by implicit
  /// differentiation of the division: dI/dV = g_s / (1 + R_ohmic * g_s).
  /// Throws nh::util::SolverError("jart.conduction") when the Newton loop
  /// ends without converging.
  Conduction solveConduction(double voltage, double nDisc, double temperatureK) const;

  /// Schottky interface current at interface voltage \p vs [A].
  double schottkyCurrent(double vs, double nDisc, double temperatureK) const;

  /// Ionic drift rate dN_disc/dt [m^-3 s^-1]. Positive = SET direction.
  /// \p vDisc is the (signed) voltage across the disc from solveConduction.
  double ionicRate(double vDisc, double nDisc, double temperatureK) const;

  /// Steady-state filament temperature (Eq. 6 + crosstalk):
  /// T = T0 + T_crosstalk + RthEff * P.
  double steadyTemperature(double powerFilament, double ambientK,
                           double crosstalkK) const;

  /// Device resistance V/I at a given read voltage, state and temperature.
  double resistance(double readVoltage, double nDisc, double temperatureK) const;

  /// Soft window functions in [0, 1].
  double windowSet(double nDisc) const;
  double windowReset(double nDisc) const;

 private:
  /// Prefactors of one Schottky branch; depend only on (N_disc, T).
  struct Barrier {
    double i0;  ///< Saturation current [A].
    double vt;  ///< Ideality times thermal voltage [V].
  };
  /// Interface current and its slope dI/dvs at one interface voltage.
  struct SchottkyPoint {
    double current;
    double slope;
  };
  /// Forward (vs >= 0, SET) or reverse branch prefactors.
  Barrier barrier(bool forward, double nDisc, double temperatureK) const;
  /// The Schottky I-V law on the branch \p b belongs to.
  static SchottkyPoint schottky(double vs, const Barrier& b);

  Params params_;
  double logWindowRatio_;  ///< ln(Nmax/Nmin), cached.
};

}  // namespace nh::jart
