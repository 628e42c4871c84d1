// The shmd-lint rule registry.
//
// Each rule machine-checks one invariant the paper's defense depends on
// (see DESIGN.md "Machine-checked invariants" for the full rationale):
//
//   R1 fault-coverage  — every floating-point product in fault-injectable
//        code (src/nn/, src/hmd/) must flow through ArithmeticContext::mul
//        or dot(), because §VI.A injects undervolting faults per MAC
//        *product*; one raw `a * b` on an inference path silently bypasses
//        the defense. Raw products inside a dot() override of an
//        ArithmeticContext subclass are the sanctioned span kernels
//        themselves and are recognized structurally (or via the
//        "span-kernel" tag for kernels the heuristic cannot see).
//   R2 rng-discipline  — std::rand/srand/std::random_device only inside
//        src/rng/entropy.*; everything else uses the project RandomSource
//        hierarchy so the per-request (seed, seq) streams stay deterministic.
//   R3 stream-hygiene  — no std::cout/printf in src/ library code; the
//        library computes, benches and examples narrate.
//   R4 header-hygiene  — #pragma once first in every header, include
//        blocks sorted, no duplicate includes.
//   R5 socket-discipline — socket/readiness syscalls (socket, bind, send,
//        recv, epoll_*, ...) only inside src/net/; transport leaking into
//        scoring or model code couples the detector to I/O and makes the
//        determinism contract unauditable.
//   R6 lock-discipline — concurrent layers (src/serve/, src/net/,
//        src/runtime/) use the annotated util::Mutex/util::CondVar
//        primitives (raw std::mutex is invisible to Clang Thread Safety
//        Analysis), every mutex guards at least one SHMD_GUARDED_BY
//        member, and every CondVar declares its mutex via
//        SHMD_CV_WAITS_ON.
//   R7 atomic-ordering — every std::atomic load/store/exchange/fetch_*/
//        compare_exchange in src/ names an explicit std::memory_order;
//        an implicit seq_cst is a decision nobody made. Cross-file: the
//        atomic-member registry is built from every header in the
//        project, so uses in a .cpp of members declared in its .hpp are
//        still seen.
//   R8 determinism-taint — the pure scoring layers (src/nn/, src/hmd/,
//        src/faultsim/, src/rng/ minus entropy.*) must not read wall
//        clocks, thread ids, or thread-local state: a detector whose
//        verdict depends on when or where it ran cannot be replayed.
//   R9 layering        — cross-directory includes must follow the layer
//        DAG (util/rng → trace/faultsim/volt → nn → eval/sys → hmd →
//        attack/runtime → serve → net); an upward or sideways include
//        couples a lower layer to a higher one and makes the
//        determinism/transport boundaries unauditable.
//   R0 annotation      — suppression annotations must be well-formed and
//        carry a reason; emitted by the linter driver, not the registry.
//
// R1-R6 and R8 see one lexed SourceFile at a time (`Rule`); R7 and R9
// need the whole lexed project at once (`ProjectRule`). The driver
// (linter.hpp) applies suppressions afterwards so every rule stays
// suppression-agnostic.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "shmd-lint/source_file.hpp"

namespace shmd::lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule_id;
  std::string message;
  std::string hint;
};

/// Identity shared by per-file and whole-project rules: id, name, the
/// suppression tags that overrule it, and the paper rationale shown by
/// `shmd-lint --list-rules`.
class RuleInfo {
 public:
  virtual ~RuleInfo() = default;

  [[nodiscard]] virtual std::string_view id() const noexcept = 0;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// Primary annotation tag that overrules this rule, e.g. "exact-ok".
  [[nodiscard]] virtual std::string_view suppression_tag() const noexcept = 0;
  /// Every tag that overrules this rule. Defaults to the primary tag
  /// alone; rules with specialized escape hatches (R1's "span-kernel")
  /// override this to accept more than one.
  [[nodiscard]] virtual std::vector<std::string_view> suppression_tags() const {
    return {suppression_tag()};
  }
  /// One-line paper rationale, shown by `shmd-lint --list-rules`.
  [[nodiscard]] virtual std::string_view rationale() const noexcept = 0;
};

/// A rule that judges one translation unit in isolation.
class Rule : public RuleInfo {
 public:
  [[nodiscard]] virtual bool applies(const SourceFile& file) const = 0;
  virtual void check(const SourceFile& file, std::vector<Diagnostic>& out) const = 0;
};

/// A rule that needs the whole lexed project at once — cross-file state
/// like R7's atomic-member registry (members declared in one header, used
/// in another file) or R9's include graph. Runs after the per-file rules;
/// `files` is every source handed to Linter::lint_project, already lexed.
class ProjectRule : public RuleInfo {
 public:
  virtual void check_project(const std::vector<SourceFile>& files,
                             std::vector<Diagnostic>& out) const = 0;
};

/// All shipped per-file rules, in id order (R1..R6, R8).
[[nodiscard]] std::vector<std::unique_ptr<Rule>> default_rules();

/// All shipped whole-project rules, in id order (R7, R9).
[[nodiscard]] std::vector<std::unique_ptr<ProjectRule>> default_project_rules();

}  // namespace shmd::lint
