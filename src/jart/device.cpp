#include "jart/device.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nh::jart {

JartDevice::JartDevice(const Params& params, double ambientK, double nDiscInitial)
    : model_(params), ambientK_(ambientK) {
  if (!(ambientK > 0.0)) {
    throw std::invalid_argument("JartDevice: ambient temperature must be > 0 K");
  }
  nDisc_ = nDiscInitial > 0.0 ? nDiscInitial : params.nDiscMin;
  setNDisc(nDisc_);
}

double JartDevice::current(double v) const {
  return model_.solveConduction(v, nDisc_, temperature()).current;
}

double JartDevice::conductance(double v) const {
  return model_.solveConduction(v, nDisc_, temperature()).conductance;
}

nh::spice::OperatingPoint JartDevice::operatingPoint(double v) const {
  const Conduction c = model_.solveConduction(v, nDisc_, temperature());
  return {c.current, c.conductance};
}

void JartDevice::setNDisc(double n) {
  const Params& p = model_.params();
  nDisc_ = std::clamp(n, p.nDiscMin, p.nDiscMax);
}

void JartDevice::setAmbient(double t0) {
  if (!(t0 > 0.0)) throw std::invalid_argument("JartDevice::setAmbient: need T0 > 0");
  // Excess terms are relative to ambient, so only the baseline shifts.
  ambientK_ = t0;
}

void JartDevice::advance(double v, double dt) {
  if (dt <= 0.0) return;
  const Params& p = model_.params();
  const double window = p.nDiscMax - p.nDiscMin;
  const double maxDeltaN = 0.01 * window;  // <= 1% of the window per substep
  const double tau = p.tauThermal;

  double remaining = dt;
  while (remaining > 0.0) {
    const double t = temperature();
    const Conduction c = model_.solveConduction(v, nDisc_, t);
    lastConduction_ = c;
    // Self-heating target (Eq. 6 without the crosstalk term, which is an
    // externally supplied offset): dT_self -> RthEff * P.
    const double selfTarget = p.rThEff * c.powerFilament;
    const double rate = model_.ionicRate(c.vDisc, nDisc_, t);

    // Substep: keep the state move small both absolutely (window fraction)
    // and relatively (N enters the conduction path logarithmically, so the
    // deep-HRS regime needs per-decade resolution), and resolve the thermal
    // lag only while the temperature is actually transient (once it has
    // settled the exact exponential update below is valid for any step).
    double h = remaining;
    if (std::fabs(selfTarget - selfExcessK_) > 0.5) h = std::min(h, tau * 0.5);
    if (rate != 0.0) {
      const double absRate = std::fabs(rate);
      h = std::min(h, maxDeltaN / absRate);
      h = std::min(h, 0.05 * nDisc_ / absRate);
    }
    h = std::max(h, remaining * 1e-9);  // guard against underflow
    h = std::min(h, remaining);

    selfExcessK_ += (selfTarget - selfExcessK_) * (1.0 - std::exp(-h / tau));
    peakTemperatureK_ = std::max(peakTemperatureK_, temperature());
    nDisc_ = std::clamp(nDisc_ + rate * h, p.nDiscMin, p.nDiscMax);
    remaining -= h;
  }
}

double JartDevice::readResistance(double readVoltage) const {
  return model_.resistance(readVoltage, nDisc_, temperature());
}

}  // namespace nh::jart
