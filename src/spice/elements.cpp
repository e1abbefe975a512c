#include "spice/elements.hpp"

#include <cmath>
#include <stdexcept>

namespace nh::spice {

// ---- Resistor ---------------------------------------------------------------

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Element(std::move(name)), a_(a), b_(b), resistance_(resistance) {
  if (!(resistance > 0.0)) {
    throw std::invalid_argument("Resistor '" + this->name() + "': resistance must be > 0");
  }
}

void Resistor::stamp(StampContext& ctx) const {
  ctx.stampConductance(a_, b_, 1.0 / resistance_);
}

double Resistor::current(const nh::util::Vector& x) const {
  const double va = a_ == 0 ? 0.0 : x[a_ - 1];
  const double vb = b_ == 0 ? 0.0 : x[b_ - 1];
  return (va - vb) / resistance_;
}

// ---- Capacitor --------------------------------------------------------------

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance)
    : Element(std::move(name)), a_(a), b_(b), capacitance_(capacitance) {
  if (!(capacitance > 0.0)) {
    throw std::invalid_argument("Capacitor '" + this->name() + "': capacitance must be > 0");
  }
}

void Capacitor::stamp(StampContext& ctx) const {
  if (!ctx.transient || ctx.dt <= 0.0) {
    return;  // open circuit in DC
  }
  // Backward-Euler companion: i = C/dt * (v - vPrev)  ==>  geq = C/dt,
  // ieq = -C/dt * vPrev (a current source restoring the previous voltage).
  const double geq = capacitance_ / ctx.dt;
  const double vPrev = ctx.prevVoltage(a_) - ctx.prevVoltage(b_);
  ctx.stampConductance(a_, b_, geq);
  ctx.stampCurrentSource(a_, b_, -geq * vPrev);
}

// ---- VoltageSource ----------------------------------------------------------

VoltageSource::VoltageSource(std::string name, NodeId a, NodeId b,
                             std::unique_ptr<Waveform> waveform)
    : Element(std::move(name)), a_(a), b_(b), waveform_(std::move(waveform)) {
  if (!waveform_) throw std::invalid_argument("VoltageSource: null waveform");
}

VoltageSource::VoltageSource(std::string name, NodeId a, NodeId b, double dcValue)
    : VoltageSource(std::move(name), a, b, std::make_unique<DcWaveform>(dcValue)) {}

void VoltageSource::stamp(StampContext& ctx) const {
  const std::size_t ia = ctx.indexOf(a_);
  const std::size_t ib = ctx.indexOf(b_);
  const std::size_t br = aux_;
  // KCL rows pick up the branch current; the branch row enforces the value.
  if (ia != StampContext::kGround) {
    ctx.stampJacobian(ia, br, 1.0);
    ctx.stampJacobian(br, ia, 1.0);
  }
  if (ib != StampContext::kGround) {
    ctx.stampJacobian(ib, br, -1.0);
    ctx.stampJacobian(br, ib, -1.0);
  }
  ctx.addRhs(br, waveform_->value(ctx.time));
}

double VoltageSource::nextBreakpoint(double t) const {
  return waveform_->nextBreakpoint(t);
}

void VoltageSource::setWaveform(std::unique_ptr<Waveform> waveform) {
  if (!waveform) throw std::invalid_argument("VoltageSource::setWaveform: null");
  waveform_ = std::move(waveform);
}

// ---- CurrentSource ----------------------------------------------------------

CurrentSource::CurrentSource(std::string name, NodeId a, NodeId b,
                             std::unique_ptr<Waveform> waveform)
    : Element(std::move(name)), a_(a), b_(b), waveform_(std::move(waveform)) {
  if (!waveform_) throw std::invalid_argument("CurrentSource: null waveform");
}

CurrentSource::CurrentSource(std::string name, NodeId a, NodeId b, double dcValue)
    : CurrentSource(std::move(name), a, b, std::make_unique<DcWaveform>(dcValue)) {}

void CurrentSource::stamp(StampContext& ctx) const {
  ctx.stampCurrentSource(a_, b_, waveform_->value(ctx.time));
}

double CurrentSource::nextBreakpoint(double t) const {
  return waveform_->nextBreakpoint(t);
}

// ---- Diode ------------------------------------------------------------------

Diode::Diode(std::string name, NodeId a, NodeId b, double saturationCurrent,
             double emissionCoefficient, double temperatureK)
    : Element(std::move(name)),
      a_(a),
      b_(b),
      is_(saturationCurrent),
      n_(emissionCoefficient),
      vt_(1.380649e-23 * temperatureK / 1.602176634e-19) {
  if (is_ <= 0.0 || n_ <= 0.0) {
    throw std::invalid_argument("Diode: Is and n must be > 0");
  }
}

double Diode::current(double v) const {
  // Exponent clamp keeps the Newton iteration finite for large trial
  // voltages; the limiter in the solver keeps us out of this region anyway.
  const double arg = std::min(v / (n_ * vt_), 80.0);
  return is_ * (std::exp(arg) - 1.0);
}

void Diode::stamp(StampContext& ctx) const {
  const double v = ctx.voltage(a_) - ctx.voltage(b_);
  const double arg = std::min(v / (n_ * vt_), 80.0);
  const double expTerm = std::exp(arg);
  const double i = is_ * (expTerm - 1.0);
  const double g = std::max(is_ * expTerm / (n_ * vt_), 1e-15);
  // Linearised: i(v*) approx i0 + g*(v* - v)  ->  conductance g plus a
  // current source of (i0 - g*v).
  ctx.stampConductance(a_, b_, g);
  ctx.stampCurrentSource(a_, b_, i - g * v);
}

// ---- Memristor --------------------------------------------------------------

double MemristiveModel::conductance(double v) const {
  const double h = 1e-5 + 1e-7 * std::fabs(v);
  return (current(v + h) - current(v - h)) / (2.0 * h);
}

OperatingPoint MemristiveModel::operatingPoint(double v) const {
  return {current(v), conductance(v)};
}

Memristor::Memristor(std::string name, NodeId a, NodeId b, MemristiveModel* model)
    : Element(std::move(name)), a_(a), b_(b), model_(model) {
  if (model_ == nullptr) throw std::invalid_argument("Memristor: null model");
}

void Memristor::stamp(StampContext& ctx) const {
  const double v = ctx.voltage(a_) - ctx.voltage(b_);
  const OperatingPoint op = model_->operatingPoint(v);
  double g = op.conductance;
  if (!(g > 0.0)) g = 1e-12;  // keep the Jacobian well-conditioned
  ctx.stampConductance(a_, b_, g);
  ctx.stampCurrentSource(a_, b_, op.current - g * v);
}

void Memristor::acceptStep(const AcceptContext& ctx) {
  const double v = ctx.voltage(a_) - ctx.voltage(b_);
  model_->advance(v, ctx.dt);
}

double Memristor::terminalVoltage(const nh::util::Vector& x) const {
  const double va = a_ == 0 ? 0.0 : x[a_ - 1];
  const double vb = b_ == 0 ? 0.0 : x[b_ - 1];
  return va - vb;
}

}  // namespace nh::spice
