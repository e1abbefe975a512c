#include "xbar/sneak.hpp"

#include <stdexcept>

#include "spice/analysis.hpp"
#include "spice/elements.hpp"
#include "util/linsolve.hpp"

namespace nh::xbar {

namespace {

/// Build the single-node-per-line read circuit: memristors between line
/// nodes, drivers (with source impedance) only on the driven lines. The
/// engine's gmin keeps floating lines defined.
struct ReadCircuit {
  nh::spice::Circuit circuit;
  nh::spice::VoltageSource* bitDriver = nullptr;  ///< Selected BL at 0 V.
  std::vector<nh::spice::NodeId> wordNodes;
  std::vector<nh::spice::NodeId> bitNodes;
};

ReadCircuit buildReadCircuit(const CrossbarArray& array, std::size_t selRow,
                             std::size_t selCol, double vRead, ReadScheme scheme) {
  ReadCircuit rc;
  auto& ckt = rc.circuit;
  const double rDrv = std::max(array.config().driverResistance, 1e-3);

  for (std::size_t r = 0; r < array.rows(); ++r) {
    rc.wordNodes.push_back(ckt.node("wl" + std::to_string(r)));
  }
  for (std::size_t c = 0; c < array.cols(); ++c) {
    rc.bitNodes.push_back(ckt.node("bl" + std::to_string(c)));
  }

  const auto drive = [&](const std::string& name, nh::spice::NodeId node,
                         double level) {
    const auto src = ckt.node(name + "_src");
    auto* source = ckt.emplace<nh::spice::VoltageSource>(name, src, ckt.ground(),
                                                         level);
    ckt.emplace<nh::spice::Resistor>(name + "_rdrv", src, node, rDrv);
    return source;
  };

  drive("vwl_sel", rc.wordNodes[selRow], vRead);
  rc.bitDriver = drive("vbl_sel", rc.bitNodes[selCol], 0.0);
  if (scheme == ReadScheme::HalfBias) {
    for (std::size_t r = 0; r < array.rows(); ++r) {
      if (r != selRow) drive("vwl" + std::to_string(r), rc.wordNodes[r], vRead / 2);
    }
    for (std::size_t c = 0; c < array.cols(); ++c) {
      if (c != selCol) drive("vbl" + std::to_string(c), rc.bitNodes[c], vRead / 2);
    }
  }

  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      // const_cast: the Memristor element only mutates state via
      // acceptStep, which a DC solve never calls.
      auto* model = const_cast<jart::JartDevice*>(&array.cell(r, c));
      ckt.emplace<nh::spice::Memristor>(
          "x" + std::to_string(r) + "_" + std::to_string(c), rc.wordNodes[r],
          rc.bitNodes[c], model);
    }
  }
  return rc;
}

}  // namespace

SneakAnalysis analyzeSneak(const CrossbarArray& array, std::size_t selRow,
                           std::size_t selCol, double vRead, ReadScheme scheme) {
  if (selRow >= array.rows() || selCol >= array.cols()) {
    throw std::out_of_range("analyzeSneak: selected cell out of range");
  }
  if (vRead == 0.0) throw std::invalid_argument("analyzeSneak: vRead must be non-zero");

  ReadCircuit rc = buildReadCircuit(array, selRow, selCol, vRead, scheme);
  const auto op = nh::spice::solveDc(rc.circuit);
  if (!op.converged) {
    throw nh::util::SolverError("spice.newton",
                                "analyzeSneak: DC solve did not converge",
                                op.iterations, op.maxUpdate);
  }

  const auto nodeV = [&](nh::spice::NodeId id) {
    return id == 0 ? 0.0 : op.x[id - 1];
  };

  SneakAnalysis out;
  // Bit-line driver current: positive branch current flows out of the
  // source's + terminal; current INTO the 0 V driver is the read current.
  out.bitLineCurrent = rc.bitDriver->branchCurrent(op.x);
  const double vCell = nodeV(rc.wordNodes[selRow]) - nodeV(rc.bitNodes[selCol]);
  out.selectedCurrent = array.cell(selRow, selCol).current(vCell);
  out.sneakCurrent = out.bitLineCurrent - out.selectedCurrent;

  for (std::size_t r = 0; r < array.rows(); ++r) {
    for (std::size_t c = 0; c < array.cols(); ++c) {
      if (r == selRow && c == selCol) continue;
      const double v = nodeV(rc.wordNodes[r]) - nodeV(rc.bitNodes[c]);
      out.halfSelectPower += std::abs(v * array.cell(r, c).current(v));
      out.maxUnselectedVoltage = std::max(out.maxUnselectedVoltage, std::abs(v));
    }
  }
  return out;
}

ReadMargin worstCaseReadMargin(const ArrayConfig& config, double vRead,
                               ReadScheme scheme) {
  ReadMargin out;
  const std::size_t selRow = config.rows / 2;
  const std::size_t selCol = config.cols / 2;

  CrossbarArray array(config);
  array.fill(CellState::Lrs);  // maximum sneak background

  array.setState(selRow, selCol, CellState::Lrs);
  out.iSelectedLrs = analyzeSneak(array, selRow, selCol, vRead, scheme).bitLineCurrent;
  array.setState(selRow, selCol, CellState::Hrs);
  out.iSelectedHrs = analyzeSneak(array, selRow, selCol, vRead, scheme).bitLineCurrent;
  if (out.iSelectedLrs != 0.0) {
    out.margin = (out.iSelectedLrs - out.iSelectedHrs) / out.iSelectedLrs;
  }
  return out;
}

}  // namespace nh::xbar
