#include "lint/dataflow.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>

namespace upkit::lint {

namespace {

/// Member calls whose results are public metadata even on secret objects:
/// a buffer's length leaks nothing its span did not already leak. Keeps
/// size-driven loops in SHA/HMAC from reading as secret-dependent.
const std::set<std::string> kPublicProjections = {"size", "empty", "length",
                                                  "capacity", "count"};

/// RAII lock types plus the manual lock() entry point.
const std::set<std::string> kLockTypes = {"lock_guard", "unique_lock", "scoped_lock"};

bool ident_at(const std::vector<Token>& toks, std::size_t i, const char* text) {
    return i < toks.size() && toks[i].kind == Tok::kIdent && toks[i].text == text;
}

/// Index of the opener matching the closer at `close`, walking backwards.
std::size_t match_backward(const std::vector<Token>& toks, std::size_t close) {
    const std::string& c = toks[close].text;
    const std::string o = c == ")" ? "(" : c == "}" ? "{" : "[";
    int depth = 0;
    for (std::size_t i = close + 1; i-- > 0;) {
        if (toks[i].text == c) ++depth;
        else if (toks[i].text == o && --depth == 0) return i;
        if (i == 0) break;
    }
    return 0;
}

}  // namespace

bool flow_rule_applies(const FlowRuleBase& rule, const std::string& path) {
    for (const std::string& ex : rule.excludes) {
        if (path.find(ex) != std::string::npos) return false;
    }
    if (rule.paths.empty()) return true;
    for (const std::string& p : rule.paths) {
        if (path.find(p) != std::string::npos) return true;
    }
    return false;
}

// ---- interprocedural secret-taint ---------------------------------------

namespace {

class TaintEngine {
public:
    TaintEngine(const Program& program, const TaintRule& rule,
                std::vector<Finding>& findings)
        : program_(program), rule_(rule), findings_(findings) {
        for (const std::string& s : rule.sources) {
            if (!s.empty() && s[0] == '.') member_sources_.insert(s.substr(1));
            else free_sources_.insert(s);
        }
        for (const std::string& s : rule.sinks) {
            const auto dot = s.find('.');
            if (dot == std::string::npos) sinks_.insert({s, ""});
            else sinks_.insert({s.substr(dot + 1), s.substr(0, dot)});
        }
    }

    void run() {
        // Roots: every function in a file inside the rule's path scope.
        // Taint is seeded by source calls in the root's own body; the
        // interprocedural walk then follows it into callees anywhere in
        // the scanned tree (sinks in helpers are reported at the sink).
        for (const FileModel& f : program_.files) {
            if (!flow_rule_applies(rule_, f.tokens.path)) continue;
            for (const FunctionInfo& fn : f.functions) analyze(&fn, 0, 0);
        }
    }

private:
    struct Summary {
        bool returns_tainted = false;
    };

    bool is_source(const CallSite& call) const {
        if (free_sources_.count(call.name)) return true;
        return !call.receiver.empty() && member_sources_.count(call.name) != 0;
    }

    bool is_sink(const CallSite& call) const {
        auto [begin, end] = sinks_.equal_range({call.name, ""});
        if (begin != end) return true;
        return sinks_.count({call.name, call.receiver}) != 0;
    }

    /// Returns the first tainted identifier mentioned in [begin, end)
    /// outside a public projection (`x.size()` is public even when x is
    /// secret), or "" when the span is clean. Naming the carrier in the
    /// finding makes a taint report actionable without re-deriving the
    /// flow by hand.
    std::string span_tainted(const std::vector<Token>& toks, std::size_t begin,
                             std::size_t end,
                             const std::set<std::string>& tainted) const {
        for (std::size_t i = begin; i < end; ++i) {
            if (toks[i].kind != Tok::kIdent || !tainted.count(toks[i].text)) continue;
            if (i + 3 < end && (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
                kPublicProjections.count(toks[i + 2].text) && toks[i + 3].text == "(") {
                continue;
            }
            return toks[i].text;
        }
        return "";
    }

    bool span_sanitized(const std::vector<Token>& toks, std::size_t begin,
                        std::size_t end) const {
        for (std::size_t i = begin; i < end; ++i) {
            if (toks[i].kind == Tok::kIdent && rule_.sanitizers.count(toks[i].text)) {
                return true;
            }
        }
        return false;
    }

    bool line_allowed(const TokenFile& file, std::size_t line) const {
        return !rule_.allow.empty() && file.line_has(line, rule_.allow);
    }

    void report(const TokenFile& file, std::size_t line, const std::string& what) {
        if (std::getenv("UPKIT_LINT_DEBUG")) {
            std::fprintf(stderr, "DBG report %s:%zu %s\n", file.path.c_str(), line,
                         what.c_str());
        }
        if (line_allowed(file, line)) return;
        findings_.push_back(Finding{file.path, line, rule_.id,
                                    rule_.message + " [" + what + "]", "", false});
    }

    /// Analyzes one function with the given taint mask over its parameters.
    /// Bit i of `mask` taints params[i]. Memoized per (function, mask).
    Summary analyze(const FunctionInfo* fn, std::uint64_t mask, int depth) {
        const auto key = std::make_pair(fn, mask);
        if (const auto it = memo_.find(key); it != memo_.end()) return it->second;
        memo_[key] = Summary{};  // cycle breaker: recursion sees "not tainted"
        if (std::getenv("UPKIT_LINT_DEBUG")) {
            std::fprintf(stderr, "DBG analyze %s (%s:%zu) mask=%llu depth=%d\n",
                         fn->name.c_str(), fn->file->path.c_str(), fn->line,
                         static_cast<unsigned long long>(mask), depth);
        }

        const std::vector<Token>& toks = fn->file->tokens;
        std::set<std::string> tainted;
        for (std::size_t i = 0; i < fn->params.size() && i < 64; ++i) {
            if (mask & (std::uint64_t{1} << i)) tainted.insert(fn->params[i]);
        }

        Summary sum;
        // Two passes approximate the loop fixpoint: taint created late in a
        // loop body reaches uses earlier in the next iteration.
        for (int pass = 0; pass < 2; ++pass) {
            const bool report_pass = pass == 1;
            scan_body(fn, toks, tainted, sum, depth, report_pass);
        }
        memo_[key] = sum;
        return sum;
    }

    void scan_body(const FunctionInfo* fn, const std::vector<Token>& toks,
                   std::set<std::string>& tainted, Summary& sum, int depth,
                   bool report_pass) {
        std::size_t stmt_begin = fn->body_begin;
        for (std::size_t i = fn->body_begin; i < fn->body_end; ++i) {
            const Token& t = toks[i];

            // Statement boundary bookkeeping (';' inside parens, e.g. a
            // for-header, is skipped by the paren jump below).
            if (t.text == ";" || t.text == "{" || t.text == "}") {
                process_statement(fn, toks, stmt_begin, i, tainted, sum, depth,
                                  report_pass);
                stmt_begin = i + 1;
                continue;
            }

            // Branch constructs: condition groups must be taint-free.
            if (t.kind == Tok::kIdent &&
                (t.text == "if" || t.text == "while" || t.text == "switch" ||
                 t.text == "for") &&
                i + 1 < fn->body_end && toks[i + 1].text == "(") {
                const std::size_t close = match_forward(toks, i + 1);
                if (close < fn->body_end) {
                    const std::string carrier =
                        report_pass ? span_tainted(toks, i + 2, close, tainted) : "";
                    if (!carrier.empty() && !span_sanitized(toks, i + 2, close)) {
                        report(*fn->file, t.line,
                               "secret-dependent branch on '" + carrier + "'");
                    }
                    // Still walk the group for calls/assignments (a
                    // for-init can create taint), via normal iteration.
                }
                continue;
            }

            // Array subscript on a postfix expression.
            if (t.text == "[" && i > fn->body_begin &&
                (toks[i - 1].kind == Tok::kIdent || toks[i - 1].text == ")" ||
                 toks[i - 1].text == "]")) {
                const std::size_t close = match_forward(toks, i);
                const std::string carrier =
                    (close < fn->body_end && report_pass)
                        ? span_tainted(toks, i + 1, close, tainted)
                        : "";
                if (!carrier.empty() && !span_sanitized(toks, i + 1, close)) {
                    report(*fn->file, t.line,
                           "secret-dependent index on '" + carrier + "'");
                }
                continue;
            }
        }
        process_statement(fn, toks, stmt_begin, fn->body_end, tainted, sum, depth,
                          report_pass);
    }

    /// Handles the calls in one statement, then resolves its assignment.
    void process_statement(const FunctionInfo* fn, const std::vector<Token>& toks,
                           std::size_t begin, std::size_t end,
                           std::set<std::string>& tainted, Summary& sum, int depth,
                           bool report_pass) {
        if (begin >= end) return;
        bool any_call_returns_taint = false;

        for (std::size_t i = begin; i < end; ++i) {
            CallSite call;
            if (!parse_call(toks, i, call)) continue;
            if (rule_.sanitizers.count(call.name)) {
                // `declassify(&x, n)` re-publishes x itself.
                if (!call.args.empty() && call.name == "declassify") {
                    const auto [ab, ae] = call.args[0];
                    if (ab + 1 < ae && toks[ab].text == "&" &&
                        toks[ab + 1].kind == Tok::kIdent) {
                        tainted.erase(toks[ab + 1].text);
                    }
                }
                continue;
            }
            if (rule_.ct.count(call.name)) continue;  // trusted CT kernel

            bool args_tainted = false;
            std::uint64_t arg_mask = 0;
            for (std::size_t a = 0; a < call.args.size(); ++a) {
                if (!span_tainted(toks, call.args[a].first, call.args[a].second,
                                  tainted).empty()) {
                    args_tainted = true;
                    if (a < 64) arg_mask |= std::uint64_t{1} << a;
                }
            }
            const bool recv_tainted =
                !call.receiver.empty() && tainted.count(call.receiver) != 0;

            if (is_sink(call)) {
                if (report_pass && args_tainted) {
                    report(*fn->file, call.line,
                           "secret reaches variable-time sink " + call.name + "()");
                }
                continue;
            }
            if (is_source(call)) {
                // An allow annotation on a source line is the claim "this
                // value is public here" (e.g. a test key from a fixed
                // public seed): no taint is created.
                if (line_allowed(*fn->file, call.line)) continue;
                any_call_returns_taint = true;
                // Out-parameter shape (drbg.generate(buf)): argument
                // identifiers become tainted, except nested call names.
                for (const auto& [ab, ae] : call.args) {
                    for (std::size_t k = ab; k < ae; ++k) {
                        if (toks[k].kind == Tok::kIdent &&
                            !(k + 1 < ae && toks[k + 1].text == "(")) {
                            tainted.insert(toks[k].text);
                        }
                    }
                }
                continue;
            }

            // Known callee: descend with the tainted-parameter mask. Name
            // matching alone is not enough — `fn.mul` (Montgomery, CT)
            // must not resolve to `P256::mul` (variable-time). Descend
            // only when the symbol is provably the same: an unqualified
            // call into a free function, or `X::f(...)` into a definition
            // with qualifier X. Member calls through objects are never
            // descended (no type info); their taint is handled by the
            // conservative receiver/result propagation below.
            // Descend even with a clean argument mask: a callee can mint
            // taint internally (derive a nonce and return it) and the only
            // way to learn that is its mask-0 summary.
            bool resolved = false;  // a callee summary answered for this call
            if (depth < rule_.max_depth) {
                const bool member_call =
                    call.name_index >= 1 &&
                    (toks[call.name_index - 1].text == "." ||
                     toks[call.name_index - 1].text == "->");
                auto [lo, hi] = program_.by_name.equal_range(call.name);
                for (auto it = lo; it != hi; ++it) {
                    const FunctionInfo* callee = it->second;
                    if (callee == fn || callee->params.size() != call.args.size()) {
                        continue;
                    }
                    if (member_call) continue;
                    if (callee->qualifier.empty() ? !call.receiver.empty()
                                                  : call.receiver != callee->qualifier) {
                        continue;
                    }
                    resolved = true;
                    if (analyze(callee, arg_mask, depth + 1).returns_tainted) {
                        any_call_returns_taint = true;
                    }
                }
            }
            if (args_tainted || recv_tainted) {
                // A resolved summary answers precisely whether taint comes
                // back out (a signer that declassifies its signature does
                // not re-taint the caller); only unresolved calls fall back
                // to the conservative "taint in, taint out".
                if (!resolved) any_call_returns_taint = true;
                // Member call with secret arguments taints the receiver
                // (an HMAC absorbing key material becomes key material).
                if (!call.receiver.empty() && args_tainted) {
                    tainted.insert(call.receiver);
                }
            }

            // Paren-init declaration (`HmacSha256 mac(k);`): the "callee"
            // is really the declared variable.
            if (args_tainted && call.name_index > begin &&
                toks[call.name_index - 1].kind == Tok::kIdent &&
                !ident_at(toks, call.name_index - 1, "return")) {
                tainted.insert(call.name);
            }
        }

        // Return statements feed the caller's taint.
        if (ident_at(toks, begin, "return") &&
            (any_call_returns_taint ||
             !span_tainted(toks, begin + 1, end, tainted).empty()) &&
            !span_sanitized(toks, begin + 1, end)) {
            sum.returns_tainted = true;
        }

        // Assignment resolution: the last top-level '=' wins.
        std::size_t eq = end;
        int depth_parens = 0;
        for (std::size_t i = begin; i < end; ++i) {
            const std::string& t = toks[i].text;
            if (t == "(" || t == "[") ++depth_parens;
            else if (t == ")" || t == "]") --depth_parens;
            else if (depth_parens == 0 && toks[i].kind == Tok::kPunct &&
                     (t == "=" || t == "+=" || t == "-=" || t == "|=" || t == "&=" ||
                      t == "^=")) {
                eq = i;
                break;
            }
        }
        if (eq == end || eq == begin) return;
        // LHS variable: identifier before '=', walking over a subscript.
        std::size_t lhs = eq - 1;
        if (toks[lhs].text == "]") {
            const std::size_t open = match_backward(toks, lhs);
            if (open == 0 || open <= begin) return;
            lhs = open - 1;
        }
        if (toks[lhs].kind != Tok::kIdent) return;
        const std::string var = toks[lhs].text;
        const bool compound = toks[eq].text != "=";

        // An allow annotation on an assignment line declassifies the
        // assigned value (same auditable claim as on a source line).
        const bool rhs_sanitized = span_sanitized(toks, eq + 1, end) ||
                                   line_allowed(*fn->file, toks[eq].line);
        const bool rhs_tainted =
            any_call_returns_taint ||
            !span_tainted(toks, eq + 1, end, tainted).empty();
        if (rhs_sanitized) {
            if (!compound) tainted.erase(var);
        } else if (rhs_tainted) {
            tainted.insert(var);
        } else if (!compound) {
            tainted.erase(var);  // killed by a clean overwrite
        }
    }

    const Program& program_;
    const TaintRule& rule_;
    std::vector<Finding>& findings_;
    std::set<std::string> free_sources_;
    std::set<std::string> member_sources_;
    std::set<std::pair<std::string, std::string>> sinks_;  // (name, receiver|"")
    std::map<std::pair<const FunctionInfo*, std::uint64_t>, Summary> memo_;
};

}  // namespace

void run_taint(const Program& program, const TaintRule& rule,
               std::vector<Finding>& findings) {
    TaintEngine(program, rule, findings).run();
}

// ---- must-check status propagation --------------------------------------

namespace {

/// Start of the postfix chain ending at the callee name (a.b->write -> a).
std::size_t chain_start(const std::vector<Token>& toks, std::size_t name_index,
                        std::size_t lo) {
    std::size_t k = name_index;
    while (k >= lo + 2 &&
           (toks[k - 1].text == "." || toks[k - 1].text == "->" ||
            toks[k - 1].text == "::")) {
        if (toks[k - 2].kind == Tok::kIdent) k -= 2;
        else if (toks[k - 2].text == ")" || toks[k - 2].text == "]") {
            const std::size_t open = match_backward(toks, k - 2);
            if (open <= lo || toks[open - 1].kind != Tok::kIdent) break;
            k = open - 1;
        } else {
            break;
        }
    }
    return k;
}

struct SwitchShape {
    bool found = false;
    bool has_default = false;
    std::set<std::string> labels;
    std::size_t line = 0;
};

/// Finds a `switch (<var>)` in [begin,end) and collects its case labels.
SwitchShape find_switch_over(const std::vector<Token>& toks, std::size_t begin,
                             std::size_t end, const std::string& var) {
    SwitchShape s;
    for (std::size_t i = begin; i + 3 < end; ++i) {
        if (!ident_at(toks, i, "switch") || toks[i + 1].text != "(") continue;
        const std::size_t close = match_forward(toks, i + 1);
        // Condition must be exactly the tracked variable.
        if (close != i + 3 || toks[i + 2].text != var) continue;
        std::size_t body = close + 1;
        if (body >= end || toks[body].text != "{") continue;
        const std::size_t body_close = match_forward(toks, body);
        s.found = true;
        s.line = toks[i].line;
        for (std::size_t j = body + 1; j < body_close && j < end; ++j) {
            if (ident_at(toks, j, "default")) s.has_default = true;
            if (!ident_at(toks, j, "case")) continue;
            std::string label;
            for (std::size_t k = j + 1; k < body_close && toks[k].text != ":"; ++k) {
                if (toks[k].kind == Tok::kIdent) label = toks[k].text;
            }
            if (!label.empty()) s.labels.insert(label);
        }
        return s;
    }
    return s;
}

}  // namespace

void run_must_check(const Program& program, const MustCheckRule& rule,
                    std::vector<Finding>& findings) {
    for (const FileModel& f : program.files) {
        if (!flow_rule_applies(rule, f.tokens.path)) continue;
        const std::vector<Token>& toks = f.tokens.tokens;
        for (const FunctionInfo& fn : f.functions) {
            for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
                CallSite call;
                if (!parse_call(toks, i, call) || !rule.calls.count(call.name)) {
                    continue;
                }
                if (!rule.allow.empty() && f.tokens.line_has(call.line, rule.allow)) {
                    continue;
                }
                const std::size_t start = chain_start(toks, call.name_index,
                                                      fn.body_begin);
                const Token* prev = start > fn.body_begin ? &toks[start - 1] : nullptr;

                // Statement position: the returned Status hits the floor.
                if (prev == nullptr || prev->text == ";" || prev->text == "{" ||
                    prev->text == "}") {
                    findings.push_back(Finding{f.tokens.path, call.line, rule.id,
                                               rule.message + " [discarded]", "", false});
                    continue;
                }
                // Assigned: track the variable through the rest of the body.
                if (prev->text == "=" && start >= fn.body_begin + 2) {
                    std::size_t lhs = start - 2;
                    if (toks[lhs].kind != Tok::kIdent) continue;
                    const std::string var = toks[lhs].text;

                    bool read = false;
                    for (std::size_t j = call.args_end + 1; j < fn.body_end; ++j) {
                        if (toks[j].kind != Tok::kIdent || toks[j].text != var) continue;
                        // Plain reassignment is not a read.
                        if (j + 1 < fn.body_end && toks[j + 1].text == "=") continue;
                        read = true;
                        break;
                    }
                    if (!read) {
                        findings.push_back(
                            Finding{f.tokens.path, call.line, rule.id,
                                    rule.message + " [assigned to '" + var +
                                        "' but never checked]", "", false});
                        continue;
                    }
                    // Partial switch: handling some statuses and silently
                    // dropping the rest, with no default to catch them.
                    const SwitchShape sw = find_switch_over(
                        toks, call.args_end + 1, fn.body_end, var);
                    if (sw.found && !sw.has_default && !rule.labels.empty()) {
                        std::string missing;
                        for (const std::string& want : rule.labels) {
                            if (!sw.labels.count(want)) {
                                missing += (missing.empty() ? "" : ", ") + want;
                            }
                        }
                        if (!missing.empty() &&
                            !(rule.allow.size() &&
                              f.tokens.line_has(sw.line, rule.allow))) {
                            findings.push_back(
                                Finding{f.tokens.path, sw.line, rule.id,
                                        rule.message + " [partial switch on '" + var +
                                            "' missing: " + missing + "]", "", false});
                        }
                    }
                }
                // Any other context (condition, return, argument, compare,
                // (void) cast) counts as a use.
            }
        }
    }
}

// ---- lock discipline -----------------------------------------------------

/// The header declaring `source`'s class, when the tree holds one: a
/// class annotates its fields in x.hpp and defines its members in x.cpp.
const FileModel* companion_header(const Program& program, const std::string& source) {
    const std::size_t dot = source.rfind('.');
    if (dot == std::string::npos || source.compare(dot, std::string::npos, ".cpp") != 0) {
        return nullptr;
    }
    const std::string header = source.substr(0, dot) + ".hpp";
    for (const FileModel& f : program.files) {
        if (f.tokens.path == header) return &f;
    }
    return nullptr;
}

void run_lock_guard(const Program& program, const LockRule& rule,
                    std::vector<Finding>& findings) {
    for (const FileModel& f : program.files) {
        if (!flow_rule_applies(rule, f.tokens.path)) continue;
        std::map<std::string, std::string> guard;  // field -> mutex
        for (const GuardedField& g : f.guarded) guard[g.field] = g.mutex;
        if (const FileModel* h = companion_header(program, f.tokens.path)) {
            for (const GuardedField& g : h->guarded) guard[g.field] = g.mutex;
        }
        if (guard.empty()) continue;
        const std::vector<Token>& toks = f.tokens.tokens;

        for (const FunctionInfo& fn : f.functions) {
            // `// lint: requires-lock(mu)` on the signature line: the
            // caller's lock covers every mutation in this function.
            std::set<std::string> assumed;
            if (const Annotation* a = f.tokens.find(fn.line, "requires-lock")) {
                assumed.insert(a->args);
            }

            struct ActiveLock {
                std::set<std::string> names;
                int depth;
            };
            std::vector<ActiveLock> locks;
            int depth = 0;

            for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
                const Token& t = toks[i];
                if (t.text == "{") { ++depth; continue; }
                if (t.text == "}") {
                    --depth;
                    while (!locks.empty() && locks.back().depth > depth) locks.pop_back();
                    continue;
                }
                // RAII lock declaration: lock_guard/unique_lock/scoped_lock
                // <...> name(args) — every identifier in the args names the
                // mutex (c.mu registers both "c" and "mu").
                if (t.kind == Tok::kIdent && kLockTypes.count(t.text)) {
                    std::size_t j = i + 1;
                    if (j < fn.body_end && toks[j].text == "<") {
                        int angle = 0;
                        while (j < fn.body_end) {
                            if (toks[j].text == "<") ++angle;
                            else if (toks[j].text == ">" && --angle == 0) { ++j; break; }
                            else if (toks[j].text == ">>" && (angle -= 2) <= 0) { ++j; break; }
                            ++j;
                        }
                    }
                    // Skip the variable name, then expect the paren args.
                    while (j < fn.body_end && toks[j].kind == Tok::kIdent) ++j;
                    if (j < fn.body_end && toks[j].text == "(") {
                        const std::size_t close = match_forward(toks, j);
                        ActiveLock lock{{}, depth};
                        for (std::size_t k = j + 1; k < close; ++k) {
                            if (toks[k].kind == Tok::kIdent) lock.names.insert(toks[k].text);
                        }
                        if (!lock.names.empty()) locks.push_back(std::move(lock));
                        i = close;
                    }
                    continue;
                }
                // Manual mu.lock() / mu.unlock().
                if (t.kind == Tok::kIdent && i + 3 < fn.body_end &&
                    (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
                    toks[i + 3].text == "(" &&
                    (toks[i + 2].text == "lock" || toks[i + 2].text == "unlock")) {
                    if (toks[i + 2].text == "lock") {
                        locks.push_back({{t.text}, depth});
                    } else {
                        for (std::size_t k = locks.size(); k-- > 0;) {
                            if (locks[k].names.count(t.text)) {
                                locks.erase(locks.begin() +
                                            static_cast<std::ptrdiff_t>(k));
                                break;
                            }
                        }
                    }
                    i += 3;
                    continue;
                }

                // Mutation of a guarded field?
                if (t.kind != Tok::kIdent) continue;
                const auto g = guard.find(t.text);
                if (g == guard.end()) continue;
                // Skip the declaration site itself.
                if (f.tokens.find(t.line, "guarded-by") != nullptr) continue;

                // Walk the postfix chain forward, collecting member calls.
                bool mutating = false;
                std::size_t j = i;
                while (j + 1 < fn.body_end) {
                    const std::string& nx = toks[j + 1].text;
                    if ((nx == "." || nx == "->") && j + 2 < fn.body_end &&
                        toks[j + 2].kind == Tok::kIdent) {
                        if (j + 3 < fn.body_end && toks[j + 3].text == "(" &&
                            rule.mutators.count(toks[j + 2].text)) {
                            mutating = true;
                        }
                        j += 2;
                        continue;
                    }
                    if (nx == "[") { j = match_forward(toks, j + 1); continue; }
                    break;
                }
                if (j + 1 < fn.body_end) {
                    const std::string& after = toks[j + 1].text;
                    if (after == "=" || after == "+=" || after == "-=" ||
                        after == "|=" || after == "&=" || after == "^=" ||
                        after == "++" || after == "--") {
                        mutating = true;
                    }
                }
                const std::size_t cs = chain_start(toks, i, fn.body_begin);
                if (cs > fn.body_begin &&
                    (toks[cs - 1].text == "++" || toks[cs - 1].text == "--")) {
                    mutating = true;
                }
                if (!mutating) continue;

                const std::string& mu = g->second;
                bool held = assumed.count(mu) != 0;
                for (const ActiveLock& l : locks) {
                    if (l.names.count(mu)) { held = true; break; }
                }
                if (!held && !(rule.allow.size() && f.tokens.line_has(t.line, rule.allow))) {
                    findings.push_back(
                        Finding{f.tokens.path, t.line, rule.id,
                                rule.message + " ['" + t.text + "' mutated without '" +
                                    mu + "' held]", "", false});
                }
                i = j;
            }
        }
    }
}

}  // namespace upkit::lint
