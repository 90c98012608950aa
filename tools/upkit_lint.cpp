// upkit-lint: the repo's invariant and constant-time-discipline checker.
//
// A two-stage analyzer, still with zero dependencies beyond the standard
// library:
//
//   Stage 1 — line rules. The original data-driven regex scanner: banned
//   patterns and exhaustive FSM switches.
//   Rules are data (tools/upkit_lint.rules); escape hatches are explicit
//   `// lint: <word>` annotations, each an auditable claim.
//
//   Stage 2 — flow rules. A lightweight lexer (comment/string/preprocessor
//   aware), per-TU function extraction, and a tree-wide call graph feed
//   three flow-sensitive checks (tools/lint/): interprocedural
//   secret-taint, must-check status propagation, and lock discipline for
//   `guarded-by`-annotated fields. Same rules file, new rule types.
//
// Findings from both stages share one reporting pipeline: an optional
// committed baseline (tools/upkit_lint.baseline) suppresses audited
// pre-existing findings so CI fails only on NEW violations, and --sarif
// emits a SARIF 2.1.0 report for artifact upload.
//
// Usage:
//   upkit-lint --rules tools/upkit_lint.rules [options] <dir-or-file>...
//     --baseline FILE        suppress findings recorded in FILE
//     --write-baseline FILE  write unsuppressed findings as a new baseline
//     --sarif FILE           write a SARIF 2.1.0 report
//     --budget-ms N          fail if the whole run exceeds N milliseconds
//
// Exit codes: 0 clean, 1 findings, 2 usage/parse/budget error.
//
// Debugging: UPKIT_LINT_DEBUG=1 traces the taint engine's interprocedural
// descent (function, mask, depth) and each finding's carrier to stderr.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/dataflow.hpp"
#include "lint/lexer.hpp"
#include "lint/model.hpp"
#include "lint/report.hpp"

namespace {

namespace fs = std::filesystem;
using upkit::lint::Finding;

struct Rule {
    std::string id;
    std::string type;  // ban-pattern | switch-exhaustive | taint
                       // | must-check | lock-guard
    std::vector<std::string> paths;     // substring scopes (empty = all)
    std::vector<std::string> excludes;  // substring skips
    std::string pattern_text;
    std::optional<std::regex> pattern;
    std::string allow;   // annotation word that exempts a line
    std::string marker;  // switch-exhaustive: enum label prefix
    std::vector<std::string> labels;
    std::string message;
    // Flow-rule fields (see tools/lint/dataflow.hpp for semantics).
    std::vector<std::string> sources;     // taint: secret producers
    std::vector<std::string> sinks;       // taint: variable-time consumers
    std::vector<std::string> ct_list;     // taint: trusted CT kernels
    std::vector<std::string> sanitizers;  // taint: declassify family
    int depth = 3;                        // taint: interprocedural bound
    std::vector<std::string> calls;       // must-check: status-returning fns
    std::vector<std::string> mutators;    // lock-guard: mutating member calls
};

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        // Trim surrounding whitespace.
        const auto b = item.find_first_not_of(" \t");
        const auto e = item.find_last_not_of(" \t");
        if (b != std::string::npos) out.push_back(item.substr(b, e - b + 1));
    }
    return out;
}

bool is_flow_type(const std::string& type) {
    return type == "taint" || type == "must-check" || type == "lock-guard";
}

/// Parses the block-structured rules file. Returns nullopt on malformed
/// input (unknown field, missing pattern, bad regex).
std::optional<std::vector<Rule>> parse_rules(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "upkit-lint: cannot open rules file %s\n", path.c_str());
        return std::nullopt;
    }
    std::vector<Rule> rules;
    std::optional<Rule> current;
    std::string line;
    std::size_t lineno = 0;
    auto fail = [&](const char* why) -> std::optional<std::vector<Rule>> {
        std::fprintf(stderr, "upkit-lint: %s:%zu: %s\n", path.c_str(), lineno, why);
        return std::nullopt;
    };
    while (std::getline(in, line)) {
        ++lineno;
        const auto first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') continue;
        std::string body = line.substr(first);
        const auto space = body.find(' ');
        const std::string key = body.substr(0, space);
        const std::string value = space == std::string::npos ? "" : body.substr(space + 1);

        if (key == "rule") {
            if (current) rules.push_back(*current);
            current = Rule{};
            current->id = value;
            continue;
        }
        if (!current) return fail("field outside a rule block");
        if (key == "type") current->type = value;
        else if (key == "paths") current->paths = split_csv(value);
        else if (key == "exclude") current->excludes = split_csv(value);
        else if (key == "pattern") current->pattern_text = value;
        else if (key == "allow") current->allow = value;
        else if (key == "marker") current->marker = value;
        else if (key == "labels") current->labels = split_csv(value);
        else if (key == "message") current->message = value;
        else if (key == "source") current->sources = split_csv(value);
        else if (key == "sink") current->sinks = split_csv(value);
        else if (key == "ct") current->ct_list = split_csv(value);
        else if (key == "sanitizer") current->sanitizers = split_csv(value);
        else if (key == "depth") current->depth = std::atoi(value.c_str());
        else if (key == "calls") current->calls = split_csv(value);
        else if (key == "mutators") current->mutators = split_csv(value);
        else if (key == "end") { rules.push_back(*current); current.reset(); }
        else return fail("unknown field");
    }
    if (current) rules.push_back(*current);

    for (Rule& r : rules) {
        if (r.type != "ban-pattern" && r.type != "switch-exhaustive" &&
            !is_flow_type(r.type)) {
            std::fprintf(stderr, "upkit-lint: rule %s: unknown type '%s'\n", r.id.c_str(),
                         r.type.c_str());
            return std::nullopt;
        }
        if (r.type == "switch-exhaustive") {
            if (r.marker.empty() || r.labels.empty()) {
                std::fprintf(stderr, "upkit-lint: rule %s: switch-exhaustive needs marker + labels\n",
                             r.id.c_str());
                return std::nullopt;
            }
            continue;
        }
        if (r.type == "taint") {
            if (r.sources.empty() || r.sinks.empty()) {
                std::fprintf(stderr, "upkit-lint: rule %s: taint needs source + sink\n",
                             r.id.c_str());
                return std::nullopt;
            }
            continue;
        }
        if (r.type == "must-check") {
            if (r.calls.empty()) {
                std::fprintf(stderr, "upkit-lint: rule %s: must-check needs calls\n",
                             r.id.c_str());
                return std::nullopt;
            }
            continue;
        }
        if (r.type == "lock-guard") {
            if (r.mutators.empty()) {
                std::fprintf(stderr, "upkit-lint: rule %s: lock-guard needs mutators\n",
                             r.id.c_str());
                return std::nullopt;
            }
            continue;
        }
        try {
            r.pattern.emplace(r.pattern_text, std::regex::ECMAScript);
        } catch (const std::regex_error&) {
            std::fprintf(stderr, "upkit-lint: rule %s: bad regex '%s'\n", r.id.c_str(),
                         r.pattern_text.c_str());
            return std::nullopt;
        }
    }
    return rules;
}

bool path_applies(const Rule& r, const std::string& path) {
    for (const std::string& ex : r.excludes) {
        if (path.find(ex) != std::string::npos) return false;
    }
    if (r.paths.empty()) return true;
    for (const std::string& p : r.paths) {
        if (path.find(p) != std::string::npos) return true;
    }
    return false;
}

/// One source line after preprocessing: code with comments and string/char
/// literal contents blanked, plus any `// lint: <word>` annotation found in
/// the stripped trailing comment.
struct CookedLine {
    std::string code;
    std::string annotation;
};

/// Strips // and /* */ comments and the contents of string/char literals
/// (delimiters kept, so `"x"` becomes `""` — patterns never match inside
/// literals). Block-comment state carries across lines. Annotations are
/// collected from comment text before it is dropped.
class Stripper {
public:
    CookedLine cook(const std::string& raw) {
        CookedLine out;
        // Annotation lives in comment text; find it on the raw line.
        static const std::regex kAnnot(R"(//\s*lint:\s*([A-Za-z0-9_-]+))");
        std::smatch m;
        if (std::regex_search(raw, m, kAnnot)) out.annotation = m[1];

        std::string& code = out.code;
        code.reserve(raw.size());
        for (std::size_t i = 0; i < raw.size(); ++i) {
            const char c = raw[i];
            const char next = i + 1 < raw.size() ? raw[i + 1] : '\0';
            if (in_block_comment_) {
                if (c == '*' && next == '/') { in_block_comment_ = false; ++i; }
                continue;
            }
            if (in_string_ != '\0') {
                if (c == '\\') { ++i; continue; }
                if (c == in_string_) { in_string_ = '\0'; code.push_back(c); }
                continue;
            }
            if (c == '/' && next == '/') break;  // rest is line comment
            if (c == '/' && next == '*') { in_block_comment_ = true; ++i; continue; }
            if (c == '"' || c == '\'') { in_string_ = c; code.push_back(c); continue; }
            code.push_back(c);
        }
        // A string literal never spans lines in this codebase; reset so a
        // stray unterminated quote cannot blank the rest of the file.
        in_string_ = '\0';
        return out;
    }

private:
    bool in_block_comment_ = false;
    char in_string_ = '\0';
};

/// Tracks an open `switch` block for switch-exhaustive rules.
struct SwitchScan {
    const Rule* rule;
    std::size_t start_line;
    int depth = 0;       // brace depth relative to the switch's own block
    bool body_open = false;
    bool has_marker = false;
    bool has_default = false;
    std::set<std::string> seen_labels;
};

/// Stage 1 over one file's raw lines. Also returns the cooked line texts so
/// the driver can fill snippets (the baseline's content fingerprints) for
/// flow findings on the same file without re-reading it.
void scan_file(const std::string& path, const std::vector<std::string>& lines,
               const std::vector<Rule>& rules, std::vector<Finding>& findings,
               std::vector<std::string>& cooked_out) {
    std::vector<const Rule*> line_rules;
    std::vector<const Rule*> switch_rules;
    for (const Rule& r : rules) {
        if (is_flow_type(r.type) || !path_applies(r, path)) continue;
        if (r.type == "switch-exhaustive") switch_rules.push_back(&r);
        else line_rules.push_back(&r);
    }

    Stripper stripper;
    std::vector<SwitchScan> open_switches;
    std::size_t lineno = 0;
    cooked_out.reserve(lines.size());
    for (const std::string& raw : lines) {
        ++lineno;
        const CookedLine cooked = stripper.cook(raw);
        const std::string& code = cooked.code;
        cooked_out.push_back(code);

        for (const Rule* r : line_rules) {
            if (!r->allow.empty() && cooked.annotation == r->allow) continue;
            if (!std::regex_search(code, *r->pattern)) continue;
            findings.push_back({path, lineno, r->id, r->message, code, false});
        }

        // switch-exhaustive: open a scan per switch keyword, then feed
        // every subsequent line to all open scans until braces balance.
        for (const Rule* r : switch_rules) {
            static const std::regex kSwitch(R"(\bswitch\s*\()");
            if (std::regex_search(code, kSwitch)) {
                open_switches.push_back(SwitchScan{r, lineno, 0, false, false, false, {}});
            }
        }
        for (auto it = open_switches.begin(); it != open_switches.end();) {
            SwitchScan& s = *it;
            static const std::regex kDefault(R"(\bdefault\s*:)");
            if (std::regex_search(code, kDefault)) s.has_default = true;
            const std::regex label(R"(\bcase\s+)" + s.rule->marker + R"((\w+))");
            for (std::sregex_iterator mi(code.begin(), code.end(), label), e; mi != e; ++mi) {
                s.has_marker = true;
                s.seen_labels.insert((*mi)[1]);
            }
            for (char c : code) {
                if (c == '{') { s.depth++; s.body_open = true; }
                else if (c == '}') s.depth--;
            }
            if (s.body_open && s.depth <= 0) {
                if (s.has_marker) {
                    std::string missing;
                    for (const std::string& want : s.rule->labels) {
                        if (!s.seen_labels.count(want)) missing += (missing.empty() ? "" : ", ") + want;
                    }
                    if (!missing.empty()) {
                        findings.push_back({path, s.start_line, s.rule->id,
                                            s.rule->message + " [missing: " + missing + "]",
                                            cooked_out[s.start_line - 1], false});
                    }
                    if (s.has_default) {
                        findings.push_back({path, s.start_line, s.rule->id,
                                            s.rule->message + " [default swallows new states]",
                                            cooked_out[s.start_line - 1], false});
                    }
                }
                it = open_switches.erase(it);
            } else {
                ++it;
            }
        }
    }
}

bool scannable(const fs::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

void collect_files(const fs::path& root, std::vector<fs::path>& out) {
    // Fixture trees hold seeded violations for the lint's own tests: skip
    // them when encountered during a walk, but scan them when the caller
    // targets one explicitly (the self-test does exactly that).
    const bool root_is_fixture =
        root.generic_string().find("lint_fixtures") != std::string::npos;
    if (fs::is_regular_file(root)) {
        if (scannable(root)) out.push_back(root);
        return;
    }
    for (auto it = fs::recursive_directory_iterator(root);
         it != fs::recursive_directory_iterator(); ++it) {
        const fs::path& p = it->path();
        const std::string name = p.filename().string();
        if (it->is_directory() &&
            (name == "build" || name == ".git" ||
             (!root_is_fixture && name == "lint_fixtures"))) {
            it.disable_recursion_pending();
            continue;
        }
        if (it->is_regular_file() && scannable(p)) out.push_back(p);
    }
}

}  // namespace

int main(int argc, char** argv) {
    const auto t0 = std::chrono::steady_clock::now();
    std::string rules_path, sarif_path, baseline_path, write_baseline_path;
    long budget_ms = 0;
    std::vector<std::string> targets;
    for (int i = 1; i < argc; ++i) {
        auto val = [&](const char* flag) -> const char* {
            if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (const char* v = val("--rules")) rules_path = v;
        else if (const char* v = val("--sarif")) sarif_path = v;
        else if (const char* v = val("--baseline")) baseline_path = v;
        else if (const char* v = val("--write-baseline")) write_baseline_path = v;
        else if (const char* v = val("--budget-ms")) budget_ms = std::atol(v);
        else targets.emplace_back(argv[i]);
    }
    if (rules_path.empty() || targets.empty()) {
        std::fprintf(stderr,
                     "usage: upkit-lint --rules <rules-file> [--baseline F] "
                     "[--write-baseline F] [--sarif F] [--budget-ms N] "
                     "<dir-or-file>...\n");
        return 2;
    }

    const auto rules = parse_rules(rules_path);
    if (!rules) return 2;

    std::vector<fs::path> files;
    for (const std::string& t : targets) {
        if (!fs::exists(t)) {
            std::fprintf(stderr, "upkit-lint: no such path: %s\n", t.c_str());
            return 2;
        }
        collect_files(t, files);
    }

    const bool have_flow_rules =
        std::any_of(rules->begin(), rules->end(),
                    [](const Rule& r) { return is_flow_type(r.type); });

    std::vector<Finding> findings;
    std::map<std::string, std::vector<std::string>> cooked;  // path -> lines
    upkit::lint::Program program;

    for (const fs::path& f : files) {
        std::ifstream in(f, std::ios::binary);
        if (!in) continue;
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string text = buf.str();
        const std::string path = f.generic_string();

        std::vector<std::string> lines;
        std::string line;
        std::istringstream ls(text);
        while (std::getline(ls, line)) lines.push_back(std::move(line));

        // Stage 1: line rules.
        scan_file(path, lines, *rules, findings, cooked[path]);

        // Stage 2 input: lex + structural model for the flow rules.
        if (have_flow_rules) {
            program.files.push_back(
                upkit::lint::build_model(upkit::lint::lex(path, text)));
        }
    }

    // Stage 2: flow rules over the whole-program model.
    if (have_flow_rules) {
        program.index();
        std::vector<Finding> flow;
        for (const Rule& r : *rules) {
            if (r.type == "taint") {
                upkit::lint::TaintRule tr;
                tr.id = r.id; tr.message = r.message; tr.allow = r.allow;
                tr.paths = r.paths; tr.excludes = r.excludes;
                tr.sources = r.sources;
                tr.sinks = r.sinks;
                tr.ct = {r.ct_list.begin(), r.ct_list.end()};
                tr.sanitizers = {r.sanitizers.begin(), r.sanitizers.end()};
                tr.max_depth = r.depth;
                upkit::lint::run_taint(program, tr, flow);
            } else if (r.type == "must-check") {
                upkit::lint::MustCheckRule mr;
                mr.id = r.id; mr.message = r.message; mr.allow = r.allow;
                mr.paths = r.paths; mr.excludes = r.excludes;
                mr.calls = {r.calls.begin(), r.calls.end()};
                mr.labels = r.labels;
                upkit::lint::run_must_check(program, mr, flow);
            } else if (r.type == "lock-guard") {
                upkit::lint::LockRule lr;
                lr.id = r.id; lr.message = r.message; lr.allow = r.allow;
                lr.paths = r.paths; lr.excludes = r.excludes;
                lr.mutators = {r.mutators.begin(), r.mutators.end()};
                upkit::lint::run_lock_guard(program, lr, flow);
            }
        }
        // Snippets (the baseline's content fingerprint) come from the
        // cooked-line cache built during stage 1.
        for (Finding& f : flow) {
            const auto it = cooked.find(f.path);
            if (it != cooked.end() && f.line >= 1 && f.line <= it->second.size()) {
                f.snippet = it->second[f.line - 1];
            }
            findings.push_back(std::move(f));
        }
    }

    // Dedup: a flow rule can reach the same line under several caller
    // contexts; report each (path, line, rule, message) once.
    {
        std::set<std::string> seen;
        std::vector<Finding> unique;
        unique.reserve(findings.size());
        for (Finding& f : findings) {
            std::string key = f.path + '\x1f' + std::to_string(f.line) + '\x1f' +
                              f.rule_id + '\x1f' + f.message;
            if (seen.insert(std::move(key)).second) unique.push_back(std::move(f));
        }
        findings = std::move(unique);
    }

    // Baseline suppression: committed, audited debts never fail the run.
    if (!baseline_path.empty()) {
        std::vector<upkit::lint::BaselineEntry> baseline;
        if (!upkit::lint::load_baseline(baseline_path, baseline)) return 2;
        const std::size_t stale = upkit::lint::apply_baseline(baseline, findings);
        if (stale > 0) {
            std::fprintf(stderr,
                         "upkit-lint: %zu stale baseline entr%s (matched nothing; "
                         "prune with --write-baseline)\n",
                         stale, stale == 1 ? "y" : "ies");
        }
    }

    if (!write_baseline_path.empty()) {
        if (!upkit::lint::write_baseline(write_baseline_path, findings)) {
            std::fprintf(stderr, "upkit-lint: cannot write baseline %s\n",
                         write_baseline_path.c_str());
            return 2;
        }
        std::printf("upkit-lint: baseline written to %s\n", write_baseline_path.c_str());
        return 0;
    }

    if (!sarif_path.empty()) {
        std::vector<std::pair<std::string, std::string>> rule_table;
        for (const Rule& r : *rules) rule_table.emplace_back(r.id, r.message);
        if (!upkit::lint::write_sarif(sarif_path, findings, rule_table)) {
            std::fprintf(stderr, "upkit-lint: cannot write SARIF %s\n", sarif_path.c_str());
            return 2;
        }
    }

    std::size_t live = 0, suppressed = 0;
    for (const Finding& f : findings) {
        if (f.suppressed) { ++suppressed; continue; }
        ++live;
        std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line, f.rule_id.c_str(),
                    f.message.c_str());
    }

    const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    if (budget_ms > 0 && elapsed_ms > budget_ms) {
        std::fprintf(stderr, "upkit-lint: budget exceeded: %lld ms > %ld ms\n",
                     static_cast<long long>(elapsed_ms), budget_ms);
        return 2;
    }

    if (live > 0) {
        std::fprintf(stderr, "upkit-lint: %zu finding(s) in %zu file(s) scanned"
                             " (%zu baseline-suppressed)\n",
                     live, files.size(), suppressed);
        return 1;
    }
    std::printf("upkit-lint: clean (%zu files, %zu rules, %zu baseline-suppressed, %lld ms)\n",
                files.size(), rules->size(), suppressed,
                static_cast<long long>(elapsed_ms));
    return 0;
}
