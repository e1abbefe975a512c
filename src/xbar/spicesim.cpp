#include "xbar/spicesim.hpp"

#include <stdexcept>

namespace nh::xbar {

using nh::spice::Capacitor;
using nh::spice::DcWaveform;
using nh::spice::Memristor;
using nh::spice::PulseWaveform;
using nh::spice::Resistor;
using nh::spice::VoltageSource;

SpiceCrossbar::SpiceCrossbar(CrossbarArray& array, AlphaTable table,
                             SpiceEngineOptions options)
    : array_(&array),
      hub_(array.rows(), array.cols(), std::move(table)),
      options_(options) {
  buildNetlist();
}

std::string SpiceCrossbar::wordLineNode(std::size_t row, std::size_t segment) const {
  return "wl" + std::to_string(row) + "_" + std::to_string(segment);
}

std::string SpiceCrossbar::bitLineNode(std::size_t col, std::size_t segment) const {
  return "bl" + std::to_string(col) + "_" + std::to_string(segment);
}

void SpiceCrossbar::buildNetlist() {
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  const auto& cfg = array_->config();

  // Word line r: driver -> rDrv -> wl{r}_0 -> rSeg -> wl{r}_1 -> ... The
  // memristor of cell (r, c) connects wl{r}_c to bl{c}_r; the bit line runs
  // through its own segment chain to a grounded driver at the top.
  for (std::size_t r = 0; r < rows; ++r) {
    const auto src = "wsrc" + std::to_string(r);
    auto* driver = circuit_.emplace<VoltageSource>(
        "Vw" + std::to_string(r), circuit_.node(src), circuit_.ground(),
        std::make_unique<DcWaveform>(0.0));
    drivers_.push_back(driver);
    circuit_.emplace<Resistor>("Rwdrv" + std::to_string(r), circuit_.node(src),
                               circuit_.node(wordLineNode(r, 0)),
                               cfg.driverResistance > 0 ? cfg.driverResistance : 1e-3);
    for (std::size_t c = 0; c + 1 < cols; ++c) {
      circuit_.emplace<Resistor>(
          "Rw" + std::to_string(r) + "_" + std::to_string(c),
          circuit_.node(wordLineNode(r, c)), circuit_.node(wordLineNode(r, c + 1)),
          cfg.lineResistancePerCell > 0 ? cfg.lineResistancePerCell : 1e-3);
    }
    if (cfg.lineCapacitancePerCell > 0.0) {
      for (std::size_t c = 0; c < cols; ++c) {
        circuit_.emplace<Capacitor>(
            "Cw" + std::to_string(r) + "_" + std::to_string(c),
            circuit_.node(wordLineNode(r, c)), circuit_.ground(),
            cfg.lineCapacitancePerCell);
      }
    }
  }
  for (std::size_t c = 0; c < cols; ++c) {
    const auto src = "bsrc" + std::to_string(c);
    auto* driver = circuit_.emplace<VoltageSource>(
        "Vb" + std::to_string(c), circuit_.node(src), circuit_.ground(),
        std::make_unique<DcWaveform>(0.0));
    drivers_.push_back(driver);
    circuit_.emplace<Resistor>("Rbdrv" + std::to_string(c), circuit_.node(src),
                               circuit_.node(bitLineNode(c, 0)),
                               cfg.driverResistance > 0 ? cfg.driverResistance : 1e-3);
    for (std::size_t r = 0; r + 1 < rows; ++r) {
      circuit_.emplace<Resistor>(
          "Rb" + std::to_string(c) + "_" + std::to_string(r),
          circuit_.node(bitLineNode(c, r)), circuit_.node(bitLineNode(c, r + 1)),
          cfg.lineResistancePerCell > 0 ? cfg.lineResistancePerCell : 1e-3);
    }
    if (cfg.lineCapacitancePerCell > 0.0) {
      for (std::size_t r = 0; r < rows; ++r) {
        circuit_.emplace<Capacitor>(
            "Cb" + std::to_string(c) + "_" + std::to_string(r),
            circuit_.node(bitLineNode(c, r)), circuit_.ground(),
            cfg.lineCapacitancePerCell);
      }
    }
  }
  memristors_.reserve(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      auto* m = circuit_.emplace<Memristor>(
          "X" + std::to_string(r) + "_" + std::to_string(c),
          circuit_.node(wordLineNode(r, c)), circuit_.node(bitLineNode(c, r)),
          &array_->cell(r, c));
      memristors_.push_back(m);
    }
  }
}

void SpiceCrossbar::programDrivers(const LineBias& resting,
                                   const std::vector<LineStimulus>& stimuli) {
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  if (resting.wordLine.size() != rows || resting.bitLine.size() != cols) {
    throw std::invalid_argument("programDrivers: resting bias shape mismatch");
  }
  for (std::size_t r = 0; r < rows; ++r) {
    drivers_[r]->setWaveform(std::make_unique<DcWaveform>(resting.wordLine[r]));
  }
  for (std::size_t c = 0; c < cols; ++c) {
    drivers_[rows + c]->setWaveform(std::make_unique<DcWaveform>(resting.bitLine[c]));
  }
  for (const auto& stim : stimuli) {
    const std::size_t slot = stim.isWordLine ? stim.index : rows + stim.index;
    if ((stim.isWordLine && stim.index >= rows) ||
        (!stim.isWordLine && stim.index >= cols)) {
      throw std::out_of_range("programDrivers: stimulus line out of range");
    }
    drivers_[slot]->setWaveform(std::make_unique<PulseWaveform>(stim.pulse));
  }
}

void SpiceCrossbar::programHammer(std::size_t row, std::size_t col, double vSet,
                                  double width, double period, long long count) {
  const LineBias resting =
      selectBias(BiasScheme::Half, array_->rows(), array_->cols(), row, col, vSet);
  // The selected word line pulses between the half-select level and V; the
  // selected bit line stays at 0 (already in `resting`).
  nh::spice::PulseSpec pulse;
  pulse.base = vSet / 2.0;
  pulse.amplitude = vSet;
  pulse.delay = 0.0;
  pulse.rise = 0.5e-9;
  pulse.fall = 0.5e-9;
  pulse.width = width;
  pulse.period = period;
  pulse.count = count;
  programDrivers(resting, {{true, row, pulse}});
}

void SpiceCrossbar::refreshCrosstalk() {
  const std::size_t rows = array_->rows();
  const std::size_t cols = array_->cols();
  nh::util::Matrix selfExcess(rows, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      selfExcess(r, c) = array_->cell(r, c).selfExcessTemperature();
    }
  }
  const nh::util::Matrix tin = hub_.inputTemperatures(selfExcess);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      array_->cell(r, c).setCrosstalk(tin(r, c));
    }
  }
}

nh::spice::TransientResult SpiceCrossbar::run(double tStop) {
  nh::spice::TransientOptions opt;
  opt.tStop = tStop;
  opt.dtInitial = options_.dtInitial;
  opt.dtMax = options_.dtMax;
  opt.onStepAccepted = [this](const nh::util::Vector&, double, double) {
    refreshCrosstalk();
  };

  std::vector<nh::spice::Probe> probes;
  if (options_.traceCells) {
    for (std::size_t r = 0; r < array_->rows(); ++r) {
      for (std::size_t c = 0; c < array_->cols(); ++c) {
        const auto& device = array_->cell(r, c);
        probes.push_back({"x(" + std::to_string(r) + "," + std::to_string(c) + ")",
                          [&device](const nh::util::Vector&, double) {
                            return device.normalisedState();
                          }});
        probes.push_back({"T(" + std::to_string(r) + "," + std::to_string(c) + ")",
                          [&device](const nh::util::Vector&, double) {
                            return device.temperature();
                          }});
      }
    }
  }

  auto result = nh::spice::runTransient(circuit_, opt, probes);
  time_ += result.time.empty() ? 0.0 : result.time.back();
  return result;
}

}  // namespace nh::xbar
