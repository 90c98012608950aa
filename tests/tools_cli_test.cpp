// Integration tests of the command-line tools: drives the real binaries
// (paths injected by CMake) through the full vendor workflow — keygen →
// sign (full + differential) → info/verify → diff/apply → file-backed
// device provision/stage/boot — and checks exit codes and artefacts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "common/bytes.hpp"
#include "sim/firmware.hpp"

#ifndef UPKIT_TOOLS_DIR
#error "UPKIT_TOOLS_DIR must be defined by the build"
#endif

namespace upkit {
namespace {

namespace fs = std::filesystem;

class ToolsCliTest : public ::testing::Test {
protected:
    ToolsCliTest() {
        // Unique per test case: ctest -j runs the cases as separate
        // processes concurrently, so a shared directory would collide.
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = fs::temp_directory_path() /
               (std::string("upkit_cli_test_") + info->name());
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        write(dir_ / "v1.bin", sim::generate_firmware({.size = 24 * 1024, .seed = 1}));
        write(dir_ / "v2.bin",
              sim::mutate_app_change(sim::generate_firmware({.size = 24 * 1024, .seed = 1}),
                                     2, 600));
    }

    ~ToolsCliTest() override { fs::remove_all(dir_); }

    static void write(const fs::path& path, const Bytes& data) {
        std::ofstream out(path, std::ios::binary);
        out.write(reinterpret_cast<const char*>(data.data()),
                  static_cast<std::streamsize>(data.size()));
    }

    static Bytes read(const fs::path& path) {
        std::ifstream in(path, std::ios::binary);
        return Bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    }

    /// Runs a tool with arguments; returns its exit code.
    int run(const std::string& tool, const std::string& args) const {
        const std::string command = std::string(UPKIT_TOOLS_DIR) + "/" + tool + " " + args +
                                    " > " + (dir_ / "out.log").string() + " 2>&1";
        const int status = std::system(command.c_str());
        return WEXITSTATUS(status);
    }

    std::string path(const char* name) const { return (dir_ / name).string(); }

    fs::path dir_;
};

TEST_F(ToolsCliTest, KeygenProducesLoadableKeyPair) {
    ASSERT_EQ(run("upkit-keygen", "--seed test-vendor --out " + path("vendor")), 0);
    EXPECT_TRUE(fs::exists(path("vendor.priv")));
    EXPECT_TRUE(fs::exists(path("vendor.pub")));
    // Hex-encoded 32-byte and 64-byte keys.
    EXPECT_EQ(read(path("vendor.priv")).size(), 64u);
    EXPECT_EQ(read(path("vendor.pub")).size(), 128u);
    // Deterministic for the same seed.
    ASSERT_EQ(run("upkit-keygen", "--seed test-vendor --out " + path("vendor2")), 0);
    EXPECT_EQ(read(path("vendor.priv")), read(path("vendor2.priv")));
}

TEST_F(ToolsCliTest, SignInfoRoundTrip) {
    ASSERT_EQ(run("upkit-keygen", "--seed v --out " + path("v")), 0);
    ASSERT_EQ(run("upkit-keygen", "--seed s --out " + path("s")), 0);
    ASSERT_EQ(run("upkit-sign", "--firmware " + path("v2.bin") + " --vendor-key " +
                                    path("v.priv") + " --server-key " + path("s.priv") +
                                    " --version 2 --app-id 0xA0 --device-id 0x1 --nonce 7"
                                    " --out " + path("image.bin")),
              0);
    // info verifies both signatures and the digest: exit 0.
    EXPECT_EQ(run("upkit-info", path("image.bin") + " --vendor-pub " + path("v.pub") +
                                    " --server-pub " + path("s.pub")),
              0);
    // Wrong key: info reports an invalid signature via exit code 2.
    ASSERT_EQ(run("upkit-keygen", "--seed rogue --out " + path("rogue")), 0);
    EXPECT_EQ(run("upkit-info", path("image.bin") + " --vendor-pub " + path("rogue.pub")),
              2);
}

TEST_F(ToolsCliTest, DiffApplyRoundTrip) {
    ASSERT_EQ(run("upkit-diff",
                  path("v1.bin") + " " + path("v2.bin") + " " + path("patch.upk")),
              0);
    EXPECT_LT(fs::file_size(path("patch.upk")), fs::file_size(path("v2.bin")) / 2);
    ASSERT_EQ(run("upkit-diff", "--apply " + path("v1.bin") + " " + path("patch.upk") +
                                    " " + path("restored.bin")),
              0);
    EXPECT_EQ(read(path("restored.bin")), read(path("v2.bin")));
    // A base of the wrong size fails cleanly. (A same-size wrong base is
    // only caught one layer up: UpKit's manifest binds the patch to a base
    // *version* and the firmware digest check rejects the garbage output —
    // the raw patch format itself carries no base digest, as in classic
    // bsdiff.)
    write(dir_ / "short.bin", sim::generate_firmware({.size = 8 * 1024, .seed = 9}));
    EXPECT_NE(run("upkit-diff", "--apply " + path("short.bin") + " " + path("patch.upk") +
                                    " " + path("bad.bin")),
              0);
}

TEST_F(ToolsCliTest, FileBackedDeviceLifecycle) {
    ASSERT_EQ(run("upkit-keygen", "--seed v --out " + path("v")), 0);
    ASSERT_EQ(run("upkit-keygen", "--seed s --out " + path("s")), 0);
    const std::string keys = " --vendor-key " + path("v.priv") + " --server-key " +
                             path("s.priv") + " --app-id 0xA0";
    ASSERT_EQ(run("upkit-sign", "--firmware " + path("v1.bin") + keys +
                                    " --version 1 --out " + path("img1.bin")),
              0);
    ASSERT_EQ(run("upkit-sign", "--firmware " + path("v2.bin") + keys +
                                    " --version 2 --out " + path("img2.bin")),
              0);

    const std::string flash = "--flash " + path("dev.bin") + " ";
    ASSERT_EQ(run("upkit-device", flash + "provision " + path("img1.bin")), 0);
    ASSERT_EQ(run("upkit-device", flash + "stage " + path("img2.bin")), 0);
    ASSERT_EQ(run("upkit-device", flash + "boot --vendor-pub " + path("v.pub") +
                                      " --server-pub " + path("s.pub") + " --app-id 0xA0"),
              0);
    ASSERT_EQ(run("upkit-device", flash + "status"), 0);
    EXPECT_EQ(run("upkit-device", flash + "bogus-command"), 1);
}

TEST_F(ToolsCliTest, FileBackedBootSwapsThroughJournal) {
    ASSERT_EQ(run("upkit-keygen", "--seed v --out " + path("v")), 0);
    ASSERT_EQ(run("upkit-keygen", "--seed s --out " + path("s")), 0);
    const std::string keys = " --vendor-key " + path("v.priv") + " --server-key " +
                             path("s.priv") + " --app-id 0xA0";
    ASSERT_EQ(run("upkit-sign", "--firmware " + path("v1.bin") + keys +
                                    " --version 1 --out " + path("img1.bin")),
              0);
    ASSERT_EQ(run("upkit-sign", "--firmware " + path("v2.bin") + keys +
                                    " --version 2 --out " + path("img2.bin")),
              0);
    const std::string flash = "--flash " + path("dev.bin") + " ";
    ASSERT_EQ(run("upkit-device", flash + "provision " + path("img1.bin")), 0);
    ASSERT_EQ(run("upkit-device", flash + "stage " + path("img2.bin")), 0);

    // Two 128 KiB slots, then the journal's three 4 KiB sectors. Cut the
    // file back to the slots alone, the layout before the journal: it must
    // still open, with the journal area erased.
    constexpr std::uintmax_t kSlots = 2 * 128 * 1024;
    ASSERT_EQ(fs::file_size(path("dev.bin")), kSlots + 3 * 4096);
    fs::resize_file(path("dev.bin"), kSlots);

    ASSERT_EQ(run("upkit-device", flash + "boot --vendor-pub " + path("v.pub") +
                                      " --server-pub " + path("s.pub") + " --app-id 0xA0"),
              0);
    const Bytes log = read(dir_ / "out.log");
    EXPECT_NE(std::string(log.begin(), log.end()).find("version 2 (installed from staging)"),
              std::string::npos);

    // The install went through the journal: its metadata sectors now hold
    // a generation, and the old image is the rollback in slot 1.
    const Bytes device = read(path("dev.bin"));
    ASSERT_EQ(device.size(), kSlots + 3 * 4096);
    EXPECT_FALSE(std::all_of(device.begin() + kSlots, device.begin() + kSlots + 2 * 4096,
                             [](std::uint8_t b) { return b == 0xFF; }));
    ASSERT_EQ(run("upkit-device", flash + "status"), 0);
    const Bytes status = read(dir_ / "out.log");
    const std::string text(status.begin(), status.end());
    EXPECT_NE(text.find("slot 0: version 2"), std::string::npos);
    EXPECT_NE(text.find("slot 1: version 1"), std::string::npos);
}

TEST_F(ToolsCliTest, DeviceBenchVerifyRunsWithoutFlashImage) {
    // The throughput probe needs no flash image and must exit 0 for both
    // software backends (it self-checks a verify before timing).
    EXPECT_EQ(run("upkit-device", "--bench-verify 8"), 0);
    EXPECT_EQ(run("upkit-device", "--bench-verify 8 --backend tinydtls"), 0);
    EXPECT_EQ(run("upkit-device", "--bench-verify 8 --backend bogus"), 1);
}

// --- upkit-lint self-test ------------------------------------------------
//
// Three halves prove the lint is neither toothless nor noisy: it must
// catch 100% of the seeded violations in tests/lint_fixtures/src (one
// file per rule class, including the interprocedural taint shapes), it
// must stay silent on the correctly-written twins in
// tests/lint_fixtures/good, and it must report zero findings on the real
// tree. The baseline and SARIF paths get their own round-trips.

TEST_F(ToolsCliTest, LintCatchesAllSeededFixtureViolations) {
    const std::string src = UPKIT_SOURCE_DIR;
    const std::string rules = src + "/tools/upkit_lint.rules";
    ASSERT_EQ(run("upkit-lint",
                  "--rules " + rules + " " + src + "/tests/lint_fixtures/src"),
              1);
    const Bytes log = read(dir_ / "out.log");
    const std::string out(log.begin(), log.end());
    for (const char* rule_id :
         {"raw-compare", "vt-scalar-mul", "secret-inverse", "banned-rand",
          "banned-unbounded-copy", "banned-wall-clock", "fsm-switch-exhaustive",
          "discarded-flash-status", "secret-taint", "lock-discipline", "header-codec"}) {
        EXPECT_NE(out.find(std::string("[") + rule_id + "]"), std::string::npos)
            << "fixture violation for rule '" << rule_id << "' not caught:\n"
            << out;
    }
    // The default-swallow arm of the FSM rule fires separately from the
    // missing-case arm; both must be present.
    EXPECT_NE(out.find("missing: kCleaning"), std::string::npos) << out;
    EXPECT_NE(out.find("default swallows"), std::string::npos) << out;

    // secret-inverse matches `.pow(`: its one finding is bad_inv.cpp's
    // secret exponent.
    std::size_t secret_inverse_findings = 0;
    for (std::size_t at = out.find("[secret-inverse]"); at != std::string::npos;
         at = out.find("[secret-inverse]", at + 1)) {
        const std::size_t line_start = out.rfind('\n', at) + 1;  // npos + 1 == 0
        EXPECT_NE(out.substr(line_start, at - line_start).find("bad_inv.cpp:"),
                  std::string::npos)
            << out;
        ++secret_inverse_findings;
    }
    EXPECT_EQ(secret_inverse_findings, 1u) << out;

    // Flow-sensitive arms, each tied to its seeding fixture. Three of the
    // four taint findings are interprocedural: a branch on a tainted
    // parameter inside a helper, a tainted return value reaching memcmp in
    // the caller, and a two-level chain ending in variable-time curve.mul.
    EXPECT_NE(out.find("bad_taint_branch.cpp"), std::string::npos) << out;
    EXPECT_NE(out.find("secret-dependent branch on 'k'"), std::string::npos) << out;
    EXPECT_NE(out.find("bad_taint_helper.cpp"), std::string::npos) << out;
    EXPECT_NE(out.find("secret-dependent branch on 'v'"), std::string::npos) << out;
    EXPECT_NE(out.find("bad_taint_return.cpp"), std::string::npos) << out;
    EXPECT_NE(out.find("variable-time sink memcmp()"), std::string::npos) << out;
    EXPECT_NE(out.find("bad_taint_chain.cpp"), std::string::npos) << out;
    EXPECT_NE(out.find("variable-time sink mul()"), std::string::npos) << out;
    EXPECT_NE(out.find("assigned to 'st' but never checked"), std::string::npos) << out;
    EXPECT_NE(out.find("partial switch on 'st' missing: kFlashPowerLoss"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("'order' mutated without 'mu' held"), std::string::npos) << out;
    // A field annotated in x.hpp guards the member functions of x.cpp.
    EXPECT_NE(out.find("bad_lock_split.cpp"), std::string::npos) << out;
    EXPECT_NE(out.find("'hits_' mutated without 'mu_' held"), std::string::npos) << out;

    // banned-wall-clock covers all of src/, not just the device directories:
    // the server fixture's std::chrono host clock is one of its findings.
    const std::size_t host_clock = out.find("server/bad_host_clock.cpp:");
    ASSERT_NE(host_clock, std::string::npos) << out;
    EXPECT_NE(out.substr(host_clock, out.find('\n', host_clock) - host_clock)
                  .find("[banned-wall-clock]"),
              std::string::npos)
        << out;
}

TEST_F(ToolsCliTest, LintGoodFixturesAreClean) {
    // The negative twins: declassified branches, ct-kernel consumption,
    // checked statuses, locked mutations. Zero findings or the flow rules
    // are firing on syntax rather than dataflow.
    const std::string src = UPKIT_SOURCE_DIR;
    EXPECT_EQ(run("upkit-lint", "--rules " + src + "/tools/upkit_lint.rules " + src +
                                    "/tests/lint_fixtures/good"),
              0)
        << [this] {
               const Bytes log = read(dir_ / "out.log");
               return std::string(log.begin(), log.end());
           }();
}

TEST_F(ToolsCliTest, LintRealTreeIsClean) {
    const std::string src = UPKIT_SOURCE_DIR;
    EXPECT_EQ(run("upkit-lint", "--rules " + src + "/tools/upkit_lint.rules " +
                                    "--baseline " + src + "/tools/upkit_lint.baseline " +
                                    src + "/src " + src + "/tools " + src + "/bench " +
                                    src + "/examples"),
              0)
        << [this] {
               const Bytes log = read(dir_ / "out.log");
               return std::string(log.begin(), log.end());
           }();
}

TEST_F(ToolsCliTest, LintBaselineRoundTrip) {
    // --write-baseline over the seeded violations, then a re-run against
    // that baseline: every finding must be suppressed (exit 0), and a run
    // WITHOUT the baseline must still fail — the baseline masks known
    // findings, it does not disable rules.
    const std::string src = UPKIT_SOURCE_DIR;
    const std::string rules = " --rules " + src + "/tools/upkit_lint.rules ";
    const std::string fixtures = src + "/tests/lint_fixtures/src";
    ASSERT_EQ(run("upkit-lint", rules + "--write-baseline " + path("base.txt") + " " +
                                    fixtures),
              0);
    EXPECT_EQ(run("upkit-lint", rules + "--baseline " + path("base.txt") + " " + fixtures),
              0);
    {
        const Bytes log = read(dir_ / "out.log");
        const std::string out(log.begin(), log.end());
        EXPECT_NE(out.find("baseline-suppressed"), std::string::npos) << out;
    }
    EXPECT_EQ(run("upkit-lint", rules + fixtures), 1);
    // A malformed baseline must fail closed (exit 2), not scan noisily.
    write(dir_ / "garbage.txt", Bytes{'x', ' ', 'y', '\n'});
    EXPECT_EQ(run("upkit-lint", rules + "--baseline " + path("garbage.txt") + " " +
                                    fixtures),
              2);
}

TEST_F(ToolsCliTest, LintSarifIsWellFormed) {
    const std::string src = UPKIT_SOURCE_DIR;
    ASSERT_EQ(run("upkit-lint", "--rules " + src + "/tools/upkit_lint.rules --sarif " +
                                    path("lint.sarif") + " " + src +
                                    "/tests/lint_fixtures/src"),
              1);
    const Bytes raw = read(dir_ / "lint.sarif");
    const std::string sarif(raw.begin(), raw.end());
    ASSERT_FALSE(sarif.empty());
    // Structural sanity: version header, tool driver, rule metadata, and
    // one result per printed finding with a physical location.
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"upkit-lint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"id\": \"secret-taint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"secret-taint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\""), std::string::npos);
    // Balanced braces => it at least parses as a JSON-shaped document.
    EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '{'),
              std::count(sarif.begin(), sarif.end(), '}'));
    EXPECT_EQ(std::count(sarif.begin(), sarif.end(), '['),
              std::count(sarif.begin(), sarif.end(), ']'));
}

TEST_F(ToolsCliTest, LintBudgetExceededIsAnError) {
    // A 1ms budget cannot be met by a full src/ scan (two regex passes plus
    // the flow analysis take tens of ms at minimum); the tool must exit 2
    // (infrastructure error), distinct from exit 1 (findings). 0 would mean
    // "no budget".
    const std::string src = UPKIT_SOURCE_DIR;
    EXPECT_EQ(run("upkit-lint", "--rules " + src + "/tools/upkit_lint.rules "
                                    "--budget-ms 1 " +
                                    src + "/src"),
              2);
}

TEST_F(ToolsCliTest, DeviceBootRejectsForeignAppImage) {
    ASSERT_EQ(run("upkit-keygen", "--seed v --out " + path("v")), 0);
    ASSERT_EQ(run("upkit-keygen", "--seed s --out " + path("s")), 0);
    ASSERT_EQ(run("upkit-sign", "--firmware " + path("v1.bin") + " --vendor-key " +
                                    path("v.priv") + " --server-key " + path("s.priv") +
                                    " --version 1 --app-id 0xBB --out " + path("img.bin")),
              0);
    const std::string flash = "--flash " + path("dev.bin") + " ";
    ASSERT_EQ(run("upkit-device", flash + "provision " + path("img.bin")), 0);
    // Boot expecting app 0xA0: the 0xBB image must be rejected -> exit 2.
    EXPECT_EQ(run("upkit-device", flash + "boot --vendor-pub " + path("v.pub") +
                                      " --server-pub " + path("s.pub") + " --app-id 0xA0"),
              2);
}

}  // namespace
}  // namespace upkit
