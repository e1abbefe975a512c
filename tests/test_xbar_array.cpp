#include <gtest/gtest.h>

#include "xbar/array.hpp"
#include "xbar/controller.hpp"
#include "xbar/vmm.hpp"

namespace nh::xbar {
namespace {

ArrayConfig smallConfig() {
  ArrayConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  return cfg;
}

TEST(CrossbarArray, ConstructionAndAccess) {
  CrossbarArray array(smallConfig());
  EXPECT_EQ(array.rows(), 3u);
  EXPECT_EQ(array.cols(), 3u);
  EXPECT_EQ(array.cellCount(), 9u);
  EXPECT_THROW(array.cell(3, 0), std::out_of_range);
  EXPECT_THROW(array.cell(0, 3), std::out_of_range);
  ArrayConfig bad = smallConfig();
  bad.rows = 0;
  EXPECT_THROW(CrossbarArray a(bad), std::invalid_argument);
}

TEST(CrossbarArray, FillAndStateOf) {
  CrossbarArray array(smallConfig());
  array.fill(CellState::Lrs);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(array.stateOf(r, c), CellState::Lrs);
    }
  }
  array.setState(1, 2, CellState::Hrs);
  EXPECT_EQ(array.stateOf(1, 2), CellState::Hrs);
  EXPECT_EQ(array.stateOf(1, 1), CellState::Lrs);
}

TEST(CrossbarArray, SnapshotsHaveRightShape) {
  CrossbarArray array(smallConfig());
  array.fill(CellState::Hrs);
  array.setState(0, 0, CellState::Lrs);
  const auto x = array.normalisedStates();
  EXPECT_DOUBLE_EQ(x(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(x(2, 2), 0.0);
  const auto t = array.temperatures();
  EXPECT_DOUBLE_EQ(t(1, 1), 300.0);
  const auto r = array.readResistances();
  EXPECT_LT(r(0, 0), r(1, 1));
}

TEST(CrossbarArray, AmbientPropagates) {
  CrossbarArray array(smallConfig());
  array.setAmbient(350.0);
  EXPECT_DOUBLE_EQ(array.cell(2, 2).ambient(), 350.0);
  EXPECT_DOUBLE_EQ(array.temperatures()(0, 0), 350.0);
}

// ---- controller ----------------------------------------------------------------

struct ControllerFixture : ::testing::Test {
  ControllerFixture()
      : array(smallConfig()),
        engine(array, AlphaTable::analytic(50e-9)),
        controller(engine) {
    array.fill(CellState::Hrs);
  }
  CrossbarArray array;
  FastEngine engine;
  MemoryController controller;
};

TEST_F(ControllerFixture, WriteAndReadBack) {
  const std::size_t attempts = controller.writeBit(1, 1, true);
  EXPECT_GE(attempts, 1u);
  EXPECT_LE(attempts, controller.config().maxWriteAttempts);
  EXPECT_EQ(controller.readBit(1, 1).state, CellState::Lrs);
  controller.writeBit(1, 1, false);
  EXPECT_EQ(controller.readBit(1, 1).state, CellState::Hrs);
}

TEST_F(ControllerFixture, WriteImageRoundTrip) {
  const std::vector<bool> image{true, false, true,  false, true,
                                false, true, false, true};
  controller.writeImage(image);
  EXPECT_EQ(controller.readImage(), image);
}

TEST_F(ControllerFixture, ReadDoesNotDisturb) {
  controller.writeBit(0, 0, true);
  controller.writeBit(2, 2, false);
  for (int i = 0; i < 200; ++i) {
    controller.readBit(0, 0);
    controller.readBit(2, 2);
  }
  EXPECT_EQ(controller.readBit(0, 0).state, CellState::Lrs);
  EXPECT_EQ(controller.readBit(2, 2).state, CellState::Hrs);
}

TEST_F(ControllerFixture, ReadResistanceWindow) {
  controller.writeBit(0, 1, true);
  const ReadResult lrs = controller.readBit(0, 1);
  const ReadResult hrs = controller.readBit(2, 0);
  EXPECT_LT(lrs.resistance, 2e5);
  EXPECT_GT(hrs.resistance, 1e6);
  EXPECT_GT(lrs.current, hrs.current);
}

TEST_F(ControllerFixture, ActivationCountersTrackOperations) {
  controller.writeBit(1, 2, true);
  const auto& wl = controller.wordLineActivations();
  const auto& bl = controller.bitLineActivations();
  EXPECT_GT(wl[1], 0u);
  EXPECT_GT(bl[2], 0u);
  EXPECT_EQ(wl[0], 0u);
  const std::size_t hammered = controller.hammer(1, 1, 50, 50e-9);
  EXPECT_EQ(hammered, 50u);
  EXPECT_GE(wl[1], 50u);
  controller.resetActivationCounters();
  EXPECT_EQ(wl[1], 0u);
}

TEST_F(ControllerFixture, ImageSizeValidation) {
  EXPECT_THROW(controller.writeImage(std::vector<bool>(4, false)),
               std::invalid_argument);
}

// ---- vmm -------------------------------------------------------------------------

TEST(Vmm, CurrentsFollowConductanceMatrix) {
  CrossbarArray array(smallConfig());
  array.fill(CellState::Hrs);
  array.setState(0, 0, CellState::Lrs);
  array.setState(1, 1, CellState::Lrs);

  nh::util::Vector inputs{0.2, 0.1, 0.0};
  const auto currents = vmmCurrents(array, inputs);
  ASSERT_EQ(currents.size(), 3u);
  // Column 0 is driven by the LRS cell at row 0.
  EXPECT_GT(currents[0], 10.0 * currents[2]);
  // Column 1 is driven by the LRS cell at row 1 (half the voltage).
  EXPECT_GT(currents[1], 5.0 * currents[2]);
  EXPECT_GT(currents[0], currents[1]);
}

TEST(Vmm, MonotoneAndSuperlinearInInputs) {
  CrossbarArray array(smallConfig());
  array.fill(CellState::Lrs);
  const auto i1 = vmmCurrents(array, {0.05, 0.0, 0.0});
  const auto i2 = vmmCurrents(array, {0.10, 0.0, 0.0});
  // The Schottky interface makes the cells superlinear: doubling the input
  // at least doubles the current, but stays within one order of magnitude.
  EXPECT_GT(i2[0], 1.8 * i1[0]);
  EXPECT_LT(i2[0], 10.0 * i1[0]);
}

TEST(Vmm, Validation) {
  CrossbarArray array(smallConfig());
  EXPECT_THROW(vmmCurrents(array, {0.1, 0.1}), std::invalid_argument);
  EXPECT_THROW(vmmCurrents(array, {0.5, 0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(conductanceMatrix(array, 0.0), std::invalid_argument);
}

TEST(Vmm, ConductanceMatrixReflectsStates) {
  CrossbarArray array(smallConfig());
  array.fill(CellState::Hrs);
  array.setState(2, 0, CellState::Lrs);
  const auto g = conductanceMatrix(array);
  EXPECT_GT(g(2, 0), 50.0 * g(0, 0));
}

}  // namespace
}  // namespace nh::xbar
