#include "jart/model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/faultinject.hpp"
#include "util/linsolve.hpp"
#include "util/units.hpp"

namespace nh::jart {

using nh::util::kBoltzmannEv;

Model::Model(Params params) : params_(params) {
  params_.validate();
  logWindowRatio_ = std::log(params_.nDiscMax / params_.nDiscMin);
}

Model::Barrier Model::barrier(bool forward, double nDisc,
                              double temperatureK) const {
  const Params& p = params_;
  const double area = p.filamentArea();
  const double tt = temperatureK * temperatureK;
  // Params::normalisedState with the cached ln(Nmax/Nmin).
  const double x =
      std::fmin(std::fmax(std::log(nDisc / p.nDiscMin) / logWindowRatio_, 0.0), 1.0);

  if (forward) {
    // Forward (SET polarity): thermionic emission over a barrier that the
    // donor concentration in the disc lowers (more vacancies -> thinner,
    // lower effective barrier).
    const double phi = p.phiBarrier0 - p.phiLowering * x;
    return {area * p.richardson * tt * std::exp(-phi / (kBoltzmannEv * temperatureK)),
            p.idealityFwd * kBoltzmannEv * temperatureK};
  }
  // Reverse (RESET polarity): tunnelling-assisted leaky reverse conduction,
  // modelled as a soft exponential with large ideality.
  const double phi = p.phiBarrierRev - p.phiLowering * x;
  return {area * p.richardson * tt *
              std::exp(-std::max(phi, 0.02) / (kBoltzmannEv * temperatureK)),
          p.idealityRev * kBoltzmannEv * temperatureK};
}

Model::SchottkyPoint Model::schottky(double vs, const Barrier& b) {
  // I = +-i0 * (exp(|vs|/vt) - 1), odd in vs. The exponent clamp keeps
  // trial voltages finite; past it the current is flat, so the slope is 0.
  const double u = std::fabs(vs) / b.vt;
  const double e = std::exp(std::min(u, 60.0));
  const double magnitude = b.i0 * (e - 1.0);
  return {vs >= 0.0 ? magnitude : -magnitude, u < 60.0 ? b.i0 * e / b.vt : 0.0};
}

double Model::schottkyCurrent(double vs, double nDisc, double temperatureK) const {
  return schottky(vs, barrier(vs >= 0.0, nDisc, temperatureK)).current;
}

Conduction Model::solveConduction(double voltage, double nDisc,
                                  double temperatureK) const {
  const Params& p = params_;
  Conduction out;
  const double rDisc = p.discResistance(nDisc);
  const double rOhmic = rDisc + p.plugResistance() + p.rSeries;
  // Implicit differentiation of vs + R * I_sch(vs) = V: dvs/dV = 1/(1+R*g_s).
  const auto terminalSlope = [rOhmic](double gs) { return gs / (1.0 + rOhmic * gs); };

  if (voltage == 0.0) {
    // vs = 0 sits on the forward branch (as in schottkyCurrent).
    const Barrier fwd = barrier(true, nDisc, temperatureK);
    out.conductance = terminalSlope(fwd.i0 / fwd.vt);
    return out;
  }

  // Solve f(vs) = vs + R * I_sch(vs) - V = 0. I_sch is monotone increasing
  // in vs, so f is monotone: bracket [min(0,V), max(0,V)] always contains
  // the root. Newton with bisection safeguard. Every iterate stays strictly
  // inside the bracket, so vs keeps the sign of V and one branch serves the
  // whole solve.
  const Barrier b = barrier(voltage > 0.0, nDisc, temperatureK);
  double lo = std::min(0.0, voltage);
  double hi = std::max(0.0, voltage);
  double vs = voltage * 0.5;
  SchottkyPoint s = schottky(vs, b);
  double f = 0.0;
  bool converged = false;
  int iter = 0;
  for (; iter < 200; ++iter) {
    f = vs + rOhmic * s.current - voltage;
    if (std::fabs(f) < 1e-12 * std::max(1.0, std::fabs(voltage))) {
      converged = true;
      break;
    }
    if (f > 0.0) {
      hi = vs;
    } else {
      lo = vs;
    }
    double vsNew = vs - f / (1.0 + rOhmic * s.slope);
    if (!(vsNew > lo && vsNew < hi)) vsNew = 0.5 * (lo + hi);  // bisect
    const bool stalled = std::fabs(vsNew - vs) < 1e-15;
    vs = vsNew;
    s = schottky(vs, b);
    if (stalled) {
      converged = true;
      break;
    }
  }
  // Fault site: tests force a non-converged solve to exercise the per-point
  // isolation above the attack engine.
  if (nh::util::faultinject::shouldFire("jart.conduction")) converged = false;
  if (!converged) {
    throw nh::util::SolverError("jart.conduction",
                                "interface-voltage Newton did not converge",
                                static_cast<std::size_t>(iter), std::fabs(f));
  }

  const double i = s.current;
  out.current = i;
  out.conductance = terminalSlope(s.slope);
  out.vSchottky = vs;
  out.vDisc = i * rDisc;
  // Power heating the filament: everything except the external series
  // resistance (which sits in the electrodes, away from the filament).
  out.powerFilament = std::fabs(i * (voltage - i * p.rSeries));
  return out;
}

double Model::windowSet(double nDisc) const {
  const Params& p = params_;
  const double frac = nDisc / p.nDiscMax;
  if (frac >= 1.0) return 0.0;
  return 1.0 - std::pow(frac, p.windowExponent);
}

double Model::windowReset(double nDisc) const {
  const Params& p = params_;
  const double frac = p.nDiscMin / nDisc;
  if (frac >= 1.0) return 0.0;
  return 1.0 - std::pow(frac, p.windowExponent);
}

double Model::ionicRate(double vDisc, double nDisc, double temperatureK) const {
  const Params& p = params_;
  if (vDisc == 0.0) return 0.0;
  const double gamma = p.fieldCoefficient();  // [K/V]
  if (vDisc > 0.0) {
    // SET: vacancies drift from the plug into the disc.
    const double arrhenius =
        std::exp(-p.activationEnergySet / (kBoltzmannEv * temperatureK));
    const double field = std::sinh(std::min(gamma * vDisc / temperatureK, 60.0));
    return p.kineticPrefactorSet * arrhenius * field * windowSet(nDisc);
  }
  // RESET: vacancies drift back toward the plug.
  const double arrhenius =
      std::exp(-p.activationEnergyReset / (kBoltzmannEv * temperatureK));
  const double field = std::sinh(std::min(gamma * (-vDisc) / temperatureK, 60.0));
  return -p.kineticPrefactorReset * arrhenius * field * windowReset(nDisc);
}

double Model::steadyTemperature(double powerFilament, double ambientK,
                                double crosstalkK) const {
  return ambientK + crosstalkK + params_.rThEff * powerFilament;
}

double Model::resistance(double readVoltage, double nDisc,
                         double temperatureK) const {
  if (readVoltage == 0.0) {
    throw std::invalid_argument("Model::resistance: readVoltage must be non-zero");
  }
  const Conduction c = solveConduction(readVoltage, nDisc, temperatureK);
  if (c.current == 0.0) return 1e15;
  return readVoltage / c.current;
}

}  // namespace nh::jart
