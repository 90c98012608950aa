// Exhaustive power-loss fault-injection campaigns (the never-brick
// property): a cut at EVERY flash-op index across the full update and the
// subsequent boot-time install must leave the device bootable (old or new
// version) and one retry must converge to the new version — for every slot
// layout, and with a second cut injected while recovery itself is running.
#include <gtest/gtest.h>

#include "core/fault_campaign.hpp"

namespace upkit::core {
namespace {

void expect_clean(const FaultCampaignReport& report) {
    EXPECT_TRUE(report.complete) << "sweep did not reach the end of the op space";
    EXPECT_EQ(report.bricks, 0u) << "first failure at op " << report.first_failure_op;
    EXPECT_EQ(report.retry_failures, 0u)
        << "first failure at op " << report.first_failure_op;
    // The sweep is vacuous unless cuts actually fired.
    EXPECT_GT(report.cuts_fired, 0u);
    EXPECT_GT(report.cases, 1u);
}

TEST(FaultInjectionCampaign, AbLayoutSurvivesEveryCut) {
    FaultCampaignConfig config;
    config.layout = SlotLayout::kAB;
    const FaultCampaignReport report = FaultCampaign(config).run();
    expect_clean(report);
}

TEST(FaultInjectionCampaign, StaticLayoutSurvivesEveryCut) {
    FaultCampaignConfig config;
    config.layout = SlotLayout::kStaticInternal;
    const FaultCampaignReport report = FaultCampaign(config).run();
    expect_clean(report);
    // Static mode installs by swapping at boot; some cut must have landed
    // mid-swap and been completed from the journal on the next boot.
    EXPECT_GT(report.swap_resumes, 0u);
}

TEST(FaultInjectionCampaign, StaticLayoutSurvivesCutDuringRecovery) {
    // Double faults: after the first cut, the recovery boot is itself cut —
    // immediately (op 0) and mid-way (op 7). The journal must be re-entrant.
    FaultCampaignConfig config;
    config.layout = SlotLayout::kStaticInternal;
    config.recovery_cuts = {0, 7};
    const FaultCampaignReport report = FaultCampaign(config).run();
    expect_clean(report);
}

// The CC2650 layout: the staging slot lives on the external SPI part, the
// bootable slot and the journal (metadata and scratch sector) on the
// internal one. The campaign cuts internal-part operations only: external
// operations are never cut here. A power domain spanning both parts is the
// roadmap's power-loss sweep work (ROADMAP.md).
FaultCampaignConfig external_staging_config() {
    FaultCampaignConfig config;
    config.layout = SlotLayout::kStaticExternal;
    config.platform = &sim::cc2650();
    return config;
}

TEST(FaultInjectionCampaign, ExternalStagingLayoutSurvivesEveryCut) {
    const FaultCampaignReport report = FaultCampaign(external_staging_config()).run();
    expect_clean(report);
    EXPECT_GT(report.swap_resumes, 0u);
}

TEST(FaultInjectionCampaign, ExternalStagingLayoutSurvivesCutDuringRecovery) {
    FaultCampaignConfig config = external_staging_config();
    config.recovery_cuts = {0, 7};
    const FaultCampaignReport report = FaultCampaign(config).run();
    expect_clean(report);
}

TEST(FaultInjectionCampaign, AbLayoutSurvivesCutDuringRecovery) {
    FaultCampaignConfig config;
    config.layout = SlotLayout::kAB;
    config.recovery_cuts = {3};
    const FaultCampaignReport report = FaultCampaign(config).run();
    expect_clean(report);
}

}  // namespace
}  // namespace upkit::core
