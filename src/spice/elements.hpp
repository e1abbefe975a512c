#pragma once
/// \file elements.hpp
/// Concrete circuit elements: resistor, capacitor, independent sources, an
/// ideal diode (used to validate Newton convergence on exponential I-V), and
/// the behavioural memristor that hosts compact models such as JART VCM.

#include <functional>
#include <memory>

#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace nh::spice {

/// Linear resistor between nodes a and b.
class Resistor final : public Element {
 public:
  /// \p resistance must be > 0.
  Resistor(std::string name, NodeId a, NodeId b, double resistance);
  void stamp(StampContext& ctx) const override;
  double resistance() const { return resistance_; }
  /// Current flowing a -> b given an accepted solution.
  double current(const nh::util::Vector& x) const;
  NodeId nodeA() const { return a_; }
  NodeId nodeB() const { return b_; }

 private:
  NodeId a_, b_;
  double resistance_;
};

/// Linear capacitor; companion model is backward-Euler in transient and an
/// open circuit in DC.
class Capacitor final : public Element {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance);
  void stamp(StampContext& ctx) const override;
  double capacitance() const { return capacitance_; }

 private:
  NodeId a_, b_;
  double capacitance_;
};

/// Independent voltage source V(a) - V(b) = waveform(t). Adds one auxiliary
/// unknown: its branch current (positive current flows from a through the
/// source to b).
class VoltageSource final : public Element {
 public:
  VoltageSource(std::string name, NodeId a, NodeId b,
                std::unique_ptr<Waveform> waveform);
  /// DC convenience constructor.
  VoltageSource(std::string name, NodeId a, NodeId b, double dcValue);

  std::size_t auxiliaryCount() const override { return 1; }
  void stamp(StampContext& ctx) const override;
  double nextBreakpoint(double t) const override;

  /// Replace the waveform (the memory controller re-programs line drivers
  /// between operations).
  void setWaveform(std::unique_ptr<Waveform> waveform);
  const Waveform& waveform() const { return *waveform_; }

  /// Branch current from the accepted solution (needs finalize() to have
  /// assigned the auxiliary index).
  double branchCurrent(const nh::util::Vector& x) const { return x[aux_]; }

 private:
  NodeId a_, b_;
  std::unique_ptr<Waveform> waveform_;
};

/// Independent current source injecting waveform(t) from a to b.
class CurrentSource final : public Element {
 public:
  CurrentSource(std::string name, NodeId a, NodeId b,
                std::unique_ptr<Waveform> waveform);
  CurrentSource(std::string name, NodeId a, NodeId b, double dcValue);
  void stamp(StampContext& ctx) const override;
  double nextBreakpoint(double t) const override;

 private:
  NodeId a_, b_;
  std::unique_ptr<Waveform> waveform_;
};

/// Shockley diode (anode a, cathode b): i = Is*(exp(v/(n*Vt)) - 1).
/// Exercises the Newton solver on a stiff exponential, mirroring the
/// Schottky branch inside the memristor model.
class Diode final : public Element {
 public:
  Diode(std::string name, NodeId a, NodeId b, double saturationCurrent = 1e-14,
        double emissionCoefficient = 1.0, double temperatureK = 300.0);
  void stamp(StampContext& ctx) const override;
  bool isNonlinear() const override { return true; }
  double current(double v) const;

 private:
  NodeId a_, b_;
  double is_, n_, vt_;
};

/// Device current and its slope at one terminal voltage: what a Newton
/// iteration linearises the device around.
struct OperatingPoint {
  double current = 0.0;      ///< I(v) [A].
  double conductance = 0.0;  ///< dI/dV at v [S].
};

/// Interface a compact memristive model exposes to the circuit engine.
/// Implemented by nh::jart::JartDevice; kept abstract here so nh::spice has
/// no dependency on the model library.
class MemristiveModel {
 public:
  virtual ~MemristiveModel() = default;
  /// Device current at terminal voltage \p v with the *current* internal
  /// state (state is frozen within a Newton solve).
  virtual double current(double v) const = 0;
  /// dI/dV at \p v. The base class takes a symmetric finite difference of
  /// two current() calls; models with an analytic slope override it.
  virtual double conductance(double v) const;
  /// Current and conductance at \p v in one call; the circuit engines use
  /// this once per device per Newton iteration. The base class calls
  /// current() and conductance(); models that get both from one internal
  /// solve override it.
  virtual OperatingPoint operatingPoint(double v) const;
  /// Integrate internal state (ionic concentration, filament temperature)
  /// over an accepted step of length \p dt at terminal voltage \p v.
  virtual void advance(double v, double dt) = 0;
};

/// Two-terminal behavioural memristor hosting a MemristiveModel.
/// Non-owning: several analyses can share one model/state.
class Memristor final : public Element {
 public:
  Memristor(std::string name, NodeId a, NodeId b, MemristiveModel* model);
  void stamp(StampContext& ctx) const override;
  void acceptStep(const AcceptContext& ctx) override;
  bool isNonlinear() const override { return true; }
  /// Terminal voltage a-b from a solution vector.
  double terminalVoltage(const nh::util::Vector& x) const;
  MemristiveModel* model() const { return model_; }

 private:
  NodeId a_, b_;
  MemristiveModel* model_;
};

}  // namespace nh::spice
