#pragma once
/// \file circuit.hpp
/// Netlist container and the element stamping interface of the modified
/// nodal analysis (MNA) engine. Node 0 is ground. Every non-ground node
/// contributes one unknown (its voltage); elements may request auxiliary
/// unknowns (branch currents, e.g. for voltage sources). Elements stamp into
/// a sparse triplet stream; see analysis.hpp for the solve path.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/matrix.hpp"

namespace nh::util {
class TripletBuilder;  // util/sparse.hpp
}

namespace nh::spice {

/// Opaque node identifier (0 = ground).
using NodeId = std::size_t;

/// Everything an element needs to stamp its Newton-linearised companion
/// model into the MNA system G*x = rhs at the candidate solution \p x.
/// Matrix entries stream into \p triplets; the analyses assemble the CSR
/// through a cached SparsityPattern and factor it with SparseLu. Because
/// every element issues the same stamp sequence each rebuild, the triplet
/// stream satisfies the SparsityPattern::assemble refill contract.
struct StampContext {
  nh::util::TripletBuilder& triplets;  ///< Matrix target.
  nh::util::Vector& rhs;        ///< Right-hand side.
  const nh::util::Vector& x;    ///< Candidate solution this Newton iteration.
  const nh::util::Vector& xPrev;///< Accepted solution of the previous timestep.
  double time = 0.0;            ///< Absolute time of the step being solved [s].
  double dt = 0.0;              ///< Timestep [s]; 0 for DC analyses.
  bool transient = false;       ///< False during DC operating-point solves.
  /// False when the analysis re-uses a frozen Jacobian (linear circuit with
  /// an unchanged timestep): matrix stamps become no-ops and only the
  /// right-hand side is rebuilt.
  bool stampMatrix = true;

  /// Row/column of node \p n, or npos for ground.
  static constexpr std::size_t kGround = static_cast<std::size_t>(-1);
  std::size_t indexOf(NodeId n) const { return n == 0 ? kGround : n - 1; }

  /// Voltage of node \p n in the candidate solution (0 for ground).
  double voltage(NodeId n) const { return n == 0 ? 0.0 : x[n - 1]; }
  /// Voltage of node \p n in the previous accepted solution.
  double prevVoltage(NodeId n) const { return n == 0 ? 0.0 : xPrev[n - 1]; }

  /// Stamp a conductance \p g between nodes \p a and \p b.
  void stampConductance(NodeId a, NodeId b, double g);
  /// Stamp a current \p i flowing out of node \p a into node \p b
  /// (adds to the RHS as an injection).
  void stampCurrentSource(NodeId a, NodeId b, double i);
  /// Stamp an entry for an auxiliary (branch-current) unknown.
  void stampJacobian(std::size_t row, std::size_t col, double value);
  void addRhs(std::size_t row, double value);
};

/// Context passed when a timestep has been accepted; stateful devices
/// (capacitors, memristors) integrate their state here.
struct AcceptContext {
  const nh::util::Vector& x;  ///< Accepted solution.
  double time = 0.0;          ///< End time of the accepted step [s].
  double dt = 0.0;            ///< Length of the accepted step [s].
  double voltage(NodeId n) const { return n == 0 ? 0.0 : x[n - 1]; }
};

/// Base class for all circuit elements.
class Element {
 public:
  explicit Element(std::string name) : name_(std::move(name)) {}
  virtual ~Element() = default;
  Element(const Element&) = delete;
  Element& operator=(const Element&) = delete;

  const std::string& name() const { return name_; }

  /// Number of auxiliary MNA unknowns this element needs (0 for most).
  virtual std::size_t auxiliaryCount() const { return 0; }
  /// Called once by the circuit with the index of the first auxiliary
  /// unknown assigned to this element.
  virtual void assignAuxiliary(std::size_t firstIndex) { aux_ = firstIndex; }

  /// Stamp the (linearised) element equations.
  virtual void stamp(StampContext& ctx) const = 0;
  /// Commit internal state after an accepted step. Default: stateless.
  virtual void acceptStep(const AcceptContext&) {}
  /// True when the element's I-V relation is nonlinear (forces Newton
  /// iteration instead of a single linear solve).
  virtual bool isNonlinear() const { return false; }
  /// Earliest waveform breakpoint after time \p t (+inf if none).
  virtual double nextBreakpoint(double t) const;

 protected:
  std::size_t aux_ = static_cast<std::size_t>(-1);

 private:
  std::string name_;
};

/// Netlist: a set of named nodes and the elements connecting them.
class Circuit {
 public:
  Circuit();

  /// Ground node (always id 0, name "0").
  NodeId ground() const { return 0; }
  /// Get-or-create a named node.
  NodeId node(const std::string& name);
  /// Lookup an existing node; throws std::out_of_range when absent.
  NodeId findNode(const std::string& name) const;
  /// Name of node \p id.
  const std::string& nodeName(NodeId id) const { return nodeNames_.at(id); }
  /// Total node count including ground.
  std::size_t nodeCount() const { return nodeNames_.size(); }

  /// Add an element; returns a non-owning pointer for probing.
  /// Must not be called after analyses started using the circuit.
  template <typename T, typename... Args>
  T* emplace(Args&&... args) {
    auto elem = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = elem.get();
    addElement(std::move(elem));
    return raw;
  }
  void addElement(std::unique_ptr<Element> element);

  const std::vector<std::unique_ptr<Element>>& elements() const { return elements_; }

  /// Number of MNA unknowns: (nodeCount-1) node voltages + auxiliaries.
  std::size_t unknownCount() const { return nodeCount() - 1 + auxCount_; }
  /// Assign auxiliary unknown indices. Called by the analyses before any
  /// stamping; idempotent, and safe to call again after netlist edits.
  void finalize();
  /// True when any element is nonlinear.
  bool hasNonlinear() const { return nonlinear_; }
  /// Earliest element breakpoint after \p t.
  double nextBreakpoint(double t) const;

  /// Minimum conductance from every node to ground, added by the analyses
  /// for numerical robustness (keeps the Jacobian non-singular when nodes
  /// would otherwise float). Default 1e-12 S.
  double gmin() const { return gmin_; }
  void setGmin(double g) { gmin_ = g; }

 private:
  std::vector<std::string> nodeNames_;
  std::map<std::string, NodeId> nodeIndex_;
  std::vector<std::unique_ptr<Element>> elements_;
  std::size_t auxCount_ = 0;
  bool nonlinear_ = false;
  double gmin_ = 1e-12;
};

}  // namespace nh::spice
