// upkit-lint analysis core, stage 3: the flow-sensitive checks.
//
// Three analyses run over the Program model, all reported through the same
// Finding stream as the regex rules:
//
//  taint          interprocedural secret-taint: values produced by named
//                 source calls (nonce derivation, PrivateKey::scalar,
//                 DRBG output, ct::Secret::ref) may not reach branch
//                 conditions, array subscripts, or configured
//                 variable-time sinks. ct::declassify/declassify_value is
//                 the only sanitizer. Taint propagates through
//                 assignments, receiver objects, and calls (into callees
//                 and back out of tainted returns) up to a bounded depth;
//                 calls on the `ct` list are trusted opaque constant-time
//                 kernels — their arguments are legal, their results stay
//                 tainted, and the lint never descends into them (their
//                 own CT-ness is the ctcheck/MSan harness's job).
//
//  must-check     flow-aware status propagation: every call to a
//                 configured must-check function (flash write/erase/sync)
//                 must have its Status compared, returned, passed on, or
//                 explicitly (void)-cast. Beyond the old statement-
//                 position regex this tracks the assigned variable: a
//                 status parked in a local that is never read again, or
//                 read only by a switch that misses configured labels and
//                 has no default, is a finding.
//
//  lock-guard     lock discipline: fields declared with a
//                 `// lint: guarded-by(mu)` annotation may only be
//                 mutated while a lock on `mu` is live in an enclosing
//                 scope (std::lock_guard/unique_lock/scoped_lock or a
//                 manual mu.lock()). Functions annotated
//                 `// lint: requires-lock(mu)` assert the caller holds it.
//                 A source file x.cpp is checked against the fields
//                 annotated in its own text and in x.hpp, where a class
//                 declares the fields its member functions mutate.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lint/model.hpp"
#include "lint/report.hpp"

namespace upkit::lint {

/// Shared per-rule identity + escape hatch.
struct FlowRuleBase {
    std::string id;
    std::string message;
    std::string allow;                  // `// lint: <allow>` exempts a line
    std::vector<std::string> paths;     // substring scopes (empty = all)
    std::vector<std::string> excludes;  // substring skips
};

struct TaintRule : FlowRuleBase {
    /// Source entries: "name" matches any call; ".name" only member /
    /// qualified calls (x.name, x->name, X::name).
    std::vector<std::string> sources;
    /// Sink entries: "name" matches any call by that name; "recv.name"
    /// additionally requires the receiver identifier to match.
    std::vector<std::string> sinks;
    std::set<std::string> ct;          // trusted constant-time kernels
    std::set<std::string> sanitizers;  // declassify family
    int max_depth = 3;
};

struct MustCheckRule : FlowRuleBase {
    std::set<std::string> calls;        // function names returning Status
    std::vector<std::string> labels;    // enumerators a partial switch must cover
};

struct LockRule : FlowRuleBase {
    std::set<std::string> mutators;  // member calls that mutate a container
};

/// True when `path` is inside the rule's path scope.
bool flow_rule_applies(const FlowRuleBase& rule, const std::string& path);

void run_taint(const Program& program, const TaintRule& rule,
               std::vector<Finding>& findings);
void run_must_check(const Program& program, const MustCheckRule& rule,
                    std::vector<Finding>& findings);
void run_lock_guard(const Program& program, const LockRule& rule,
                    std::vector<Finding>& findings);

}  // namespace upkit::lint
