#include "core/configio.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace nh::core {
namespace {

TEST(ConfigIo, DefaultsWhenEmpty) {
  const auto cfg = studyConfigFrom(nh::util::Config::fromString(""));
  EXPECT_EQ(cfg.rows, 5u);
  EXPECT_DOUBLE_EQ(cfg.spacing, 50e-9);
  EXPECT_DOUBLE_EQ(cfg.ambientK, 300.0);
  EXPECT_FALSE(cfg.useFemAlphas);
}

TEST(ConfigIo, ParsesStudySections) {
  const auto cfg = studyConfigFrom(nh::util::Config::fromString(
      "[array]\nrows = 7\ncols = 7\n"
      "[geometry]\nspacing_nm = 10\nfem_alphas = true\nfem_voxel_nm = 10\n"
      "[environment]\nambient_K = 348\n"
      "[cell]\nactivation_energy_set_eV = 1.2\ntau_thermal_ns = 4\n"
      "[engine]\nbatching = false\n"));
  EXPECT_EQ(cfg.rows, 7u);
  EXPECT_DOUBLE_EQ(cfg.spacing, 10e-9);
  EXPECT_TRUE(cfg.useFemAlphas);
  EXPECT_DOUBLE_EQ(cfg.femVoxelSize, 10e-9);
  EXPECT_DOUBLE_EQ(cfg.ambientK, 348.0);
  EXPECT_DOUBLE_EQ(cfg.cellParams.activationEnergySet, 1.2);
  EXPECT_DOUBLE_EQ(cfg.cellParams.tauThermal, 4e-9);
  EXPECT_FALSE(cfg.engineOptions.enableBatching);
}

TEST(ConfigIo, InvalidCellParamsThrow) {
  EXPECT_THROW(studyConfigFrom(nh::util::Config::fromString(
                   "[cell]\nrth_eff_K_per_W = -1\n")),
               std::invalid_argument);
}

TEST(ConfigIo, NegativeCountsThrowNamingTheKey) {
  for (const char* key : {"rows", "cols"}) {
    const std::string ini = std::string("[array]\n") + key + " = -1\n";
    try {
      studyConfigFrom(nh::util::Config::fromString(ini));
      ADD_FAILURE() << "array." << key << " = -1 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("array.") + key),
                std::string::npos)
          << e.what();
    }
  }
  for (const char* key : {"max_pulses", "round_robin_chunk"}) {
    const std::string ini = std::string("[attack]\n") + key + " = -1\n";
    try {
      attackConfigFrom(nh::util::Config::fromString(ini), 5, 5);
      ADD_FAILURE() << "attack." << key << " = -1 was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("attack.") + key),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ConfigIo, RoundTripThroughText) {
  StudyConfig cfg;
  cfg.rows = 7;
  cfg.spacing = 30e-9;
  cfg.ambientK = 323.0;
  cfg.cellParams.activationEnergySet = 1.17;
  const auto back = studyConfigFrom(nh::util::Config::fromString(toConfigText(cfg)));
  EXPECT_EQ(back.rows, 7u);
  EXPECT_NEAR(back.spacing, 30e-9, 1e-18);
  EXPECT_DOUBLE_EQ(back.ambientK, 323.0);
  EXPECT_DOUBLE_EQ(back.cellParams.activationEnergySet, 1.17);
}

TEST(ConfigIo, AttackFromConfigPatternAndPulse) {
  const auto cfg = nh::util::Config::fromString(
      "[attack]\npattern = cross\namplitude_V = 1.2\nwidth_ns = 30\n"
      "duty = 0.25\nmax_pulses = 1234\nscheme = third\n");
  const auto attack = attackConfigFrom(cfg, 5, 5);
  EXPECT_EQ(attack.aggressors.size(), 4u);
  EXPECT_EQ(attack.victims.size(), 1u);
  EXPECT_EQ(attack.victims[0], (xbar::CellCoord{2, 2}));
  EXPECT_DOUBLE_EQ(attack.pulse.amplitude, 1.2);
  EXPECT_DOUBLE_EQ(attack.pulse.width, 30e-9);
  EXPECT_DOUBLE_EQ(attack.pulse.dutyCycle, 0.25);
  EXPECT_EQ(attack.maxPulses, 1234u);
  EXPECT_EQ(attack.scheme, xbar::BiasScheme::Third);
}

TEST(ConfigIo, AttackDefaultsToCentreHammer) {
  const auto attack = attackConfigFrom(nh::util::Config::fromString(""), 5, 5);
  ASSERT_EQ(attack.aggressors.size(), 1u);
  EXPECT_EQ(attack.aggressors[0], (xbar::CellCoord{2, 2}));
  EXPECT_TRUE(attack.victims.empty());  // monitor every HRS cell
  EXPECT_EQ(attack.scheme, xbar::BiasScheme::Half);
}

TEST(ConfigIo, BadPatternOrSchemeThrows) {
  EXPECT_THROW(patternFromName("spiral"), std::invalid_argument);
  EXPECT_THROW(attackConfigFrom(nh::util::Config::fromString(
                   "[attack]\nscheme = quarter\n"),
               5, 5),
               std::invalid_argument);
}

TEST(ConfigIo, EndToEndConfiguredAttackRuns) {
  const auto ini = nh::util::Config::fromString(
      "[geometry]\nspacing_nm = 10\n"
      "[attack]\nmax_pulses = 100000\n");
  AttackStudy study(studyConfigFrom(ini));
  const auto attack = attackConfigFrom(ini, 5, 5);
  const auto r = study.attack(attack);
  EXPECT_TRUE(r.flipped);
}

}  // namespace
}  // namespace nh::core
