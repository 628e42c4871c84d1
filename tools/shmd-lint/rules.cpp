#include "shmd-lint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <optional>
#include <set>
#include <utility>

namespace shmd::lint {
namespace {

// ---------------------------------------------------------------------------
// Shared token helpers
// ---------------------------------------------------------------------------

/// Indices of expression-level tokens (no comments, no preprocessor lines).
std::vector<std::size_t> code_indices(const std::vector<Token>& toks) {
  std::vector<std::size_t> out;
  out.reserve(toks.size());
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kComment && toks[i].kind != TokenKind::kDirective) {
      out.push_back(i);
    }
  }
  return out;
}

bool is_upper(char c) { return std::isupper(static_cast<unsigned char>(c)) != 0; }

/// Identifiers that name (or plausibly name) a type — a `*` after one of
/// these is a pointer declarator, not a multiply.
bool type_like(std::string_view name) {
  static const std::set<std::string_view> kTypes = {
      "bool",     "char",     "char8_t",  "char16_t", "char32_t", "wchar_t",  "short",
      "int",      "long",     "signed",   "unsigned", "float",    "double",   "void",
      "auto",     "const",    "volatile", "constexpr"};
  if (kTypes.contains(name)) return true;
  if (name.ends_with("_t") || name.ends_with("_type")) return true;
  return !name.empty() && is_upper(name.front());  // class names are UpperCamelCase
}

/// Names that, by project convention, hold integers (indices, dimensions,
/// counts). Products of these are address/size arithmetic, not MACs.
bool integer_named(std::string_view name) {
  static const std::set<std::string_view> kExact = {
      "i",    "j",     "k",     "l",      "m",     "n",      "o",     "idx",   "dim",
      "len",  "count", "size",  "rows",   "cols",  "stride", "width", "height", "depth",
      "epoch", "epochs", "bit", "bits",   "shift", "lane",   "worker", "workers"};
  if (kExact.contains(name)) return true;
  for (const std::string_view prefix : {"n_", "num_", "idx_"}) {
    if (name.starts_with(prefix)) return true;
  }
  for (const std::string_view suffix :
       {"_dim", "_idx", "_index", "_count", "_size", "_len", "_n", "_bits", "_bit", "_epoch",
        "_epochs", "_samples", "_leaf", "_stride", "_rows", "_cols", "_id", "_workers"}) {
    if (name.ends_with(suffix)) return true;
  }
  return false;
}

bool integer_literal(std::string_view text) {
  const bool hex = text.starts_with("0x") || text.starts_with("0X");
  if (text.find('.') != std::string_view::npos) return false;
  for (const char c : text) {
    if (hex && (c == 'p' || c == 'P')) return false;            // hex float exponent
    if (!hex && (c == 'e' || c == 'E')) return false;           // decimal exponent
    if (!hex && (c == 'f' || c == 'F')) return false;           // float suffix
  }
  return true;
}

enum class Operand { kInt, kFloat, kTypeLike, kUnknown, kNone };

/// Classify the type named inside a cast's template argument list.
Operand classify_cast_types(const std::vector<Token>& toks, const std::vector<std::size_t>& code,
                            std::size_t open_angle, std::size_t close_angle) {
  bool saw_int = false;
  for (std::size_t j = open_angle + 1; j < close_angle; ++j) {
    const Token& t = toks[code[j]];
    if (t.kind != TokenKind::kIdentifier) continue;
    if (t.text == "double" || t.text == "float") return Operand::kFloat;
    if (t.text == "int" || t.text == "long" || t.text == "short" || t.text == "unsigned" ||
        t.text == "signed" || t.text == "char" || t.text.ends_with("_t")) {
      saw_int = true;
    }
  }
  return saw_int ? Operand::kInt : Operand::kUnknown;
}

bool cast_keyword(std::string_view name) {
  return name == "static_cast" || name == "const_cast" || name == "reinterpret_cast" ||
         name == "dynamic_cast";
}

/// Keywords that can directly precede a unary `*` (dereference), so the
/// token after them is never the left operand of a multiply.
bool stmt_keyword(std::string_view name) {
  static const std::set<std::string_view> kKeywords = {
      "return",    "throw", "case",  "delete", "new",   "else",  "do",
      "goto",      "co_return", "co_yield", "co_await", "if",    "while",
      "for",       "switch", "catch"};
  return kKeywords.contains(name);
}

// ---------------------------------------------------------------------------
// R1 — fault coverage
// ---------------------------------------------------------------------------

class FaultCoverageRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "R1"; }
  [[nodiscard]] std::string_view name() const noexcept override { return "fault-coverage"; }
  [[nodiscard]] std::string_view suppression_tag() const noexcept override { return "exact-ok"; }
  [[nodiscard]] std::vector<std::string_view> suppression_tags() const override {
    return {"exact-ok", "span-kernel"};
  }
  [[nodiscard]] std::string_view rationale() const noexcept override {
    return "§VI.A injects undervolting faults per MAC product; a raw floating-point '*' in "
           "src/nn/ or src/hmd/ bypasses the stochastic defense";
  }

  [[nodiscard]] bool applies(const SourceFile& f) const override {
    // arithmetic.hpp IS the ArithmeticContext implementation — the one
    // place raw products are the point.
    return (f.in_dir("src/nn/") || f.in_dir("src/hmd/")) && f.path() != "src/nn/arithmetic.hpp";
  }

  void check(const SourceFile& f, std::vector<Diagnostic>& out) const override {
    const std::vector<Token>& toks = f.tokens();
    const std::vector<std::size_t> code = code_indices(toks);
    std::vector<std::pair<std::size_t, std::size_t>> kernels = span_kernel_ranges(toks, code);
    // Files under src/nn/kernels/ ARE the lane-blocked kernel tables the
    // span contract dispatches to (kernels.hpp documents the binding to
    // the per-product fault model), so bodies inside their `kernels`
    // namespace are sanctioned structurally — multiplies outside that
    // namespace in the same files stay in scope, and a `kernels`
    // namespace anywhere else earns no exemption.
    if (f.in_dir("src/nn/kernels/")) {
      append_kernel_namespace_ranges(toks, code, kernels);
    }
    int bracket_depth = 0;
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& tok = toks[code[ci]];
      if (tok.kind == TokenKind::kPunct) {
        if (tok.text == "[") ++bracket_depth;
        if (tok.text == "]" && bracket_depth > 0) --bracket_depth;
      }
      if (tok.kind != TokenKind::kPunct || (tok.text != "*" && tok.text != "*=")) continue;
      if (ci == 0 || ci + 1 == code.size()) continue;
      if (bracket_depth > 0) continue;  // subscript arithmetic is index math
      if (inside_any(kernels, ci)) continue;  // sanctioned dot() span kernel
      const Token& prev = toks[code[ci - 1]];
      if (prev.kind == TokenKind::kIdentifier && prev.text == "operator") continue;
      const Operand lhs = classify_left(toks, code, ci);
      if (lhs == Operand::kNone || lhs == Operand::kTypeLike || lhs == Operand::kInt) continue;
      const Operand rhs = classify_right(toks, code, ci);
      if (rhs == Operand::kNone || rhs == Operand::kInt) continue;
      out.push_back(
          {f.path(), tok.line, std::string(id()),
           "raw floating-point multiply ('" + prev.text + " " + tok.text + " " +
               toks[code[ci + 1]].text + "') outside ArithmeticContext in fault-injectable code",
           "route inference-path products through the active ArithmeticContext (ctx.mul(a, b) "
           "or ctx.dot(w, x, n)); if this product never runs on the undervolted path, annotate "
           "it: // shmd-lint: exact-ok(<why exact arithmetic is sound here>); a span kernel "
           "the dot()/gemm()-override heuristic misses takes // shmd-lint: span-kernel(<reason>)"});
    }
  }

 private:
  /// Index (in code space) of the `}` matching the `{` at code[open], or
  /// code.size() when the brace never closes (mid-edit file).
  static std::size_t match_brace(const std::vector<Token>& toks,
                                 const std::vector<std::size_t>& code, std::size_t open) {
    int depth = 0;
    for (std::size_t j = open; j < code.size(); ++j) {
      const Token& t = toks[code[j]];
      if (t.kind != TokenKind::kPunct) continue;
      if (t.text == "{") ++depth;
      if (t.text == "}" && --depth == 0) return j;
    }
    return code.size();
  }

  /// Code-index ranges covering the bodies of dot(...) and gemm(...)
  /// overrides declared inside classes that derive from ArithmeticContext.
  /// Raw products there ARE the sanctioned span kernels — the override
  /// contract (arithmetic.hpp) already binds them to the per-product fault
  /// model, so R1 skips them.
  static std::vector<std::pair<std::size_t, std::size_t>> span_kernel_ranges(
      const std::vector<Token>& toks, const std::vector<std::size_t>& code) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    for (std::size_t ci = 0; ci + 1 < code.size(); ++ci) {
      const Token& t = toks[code[ci]];
      if (t.kind != TokenKind::kIdentifier || (t.text != "class" && t.text != "struct")) continue;
      // Scan the class head (up to the body '{' or a forward-decl ';') for
      // an ArithmeticContext base.
      bool derives = false;
      std::size_t body_open = code.size();
      for (std::size_t j = ci + 1; j < code.size(); ++j) {
        const Token& h = toks[code[j]];
        if (h.kind == TokenKind::kIdentifier && h.text == "ArithmeticContext") derives = true;
        if (h.kind == TokenKind::kPunct && (h.text == ";" || h.text == "{")) {
          if (h.text == "{") body_open = j;
          break;
        }
      }
      if (!derives || body_open == code.size()) continue;
      const std::size_t body_close = match_brace(toks, code, body_open);
      for (std::size_t j = body_open + 1; j + 1 < body_close && j + 1 < code.size(); ++j) {
        const Token& m = toks[code[j]];
        if (m.kind != TokenKind::kIdentifier || (m.text != "dot" && m.text != "gemm")) continue;
        if (toks[code[j + 1]].kind != TokenKind::kPunct || toks[code[j + 1]].text != "(") continue;
        // Member named dot/gemm: require `override` between the parameter
        // list and the function body to count it as a span kernel.
        bool is_override = false;
        std::size_t fn_open = body_close;
        for (std::size_t k = j + 2; k < body_close; ++k) {
          const Token& e = toks[code[k]];
          if (e.kind == TokenKind::kIdentifier && e.text == "override") is_override = true;
          if (e.kind == TokenKind::kPunct && (e.text == ";" || e.text == "{")) {
            if (e.text == "{") fn_open = k;
            break;
          }
        }
        if (!is_override || fn_open == body_close) continue;
        const std::size_t fn_close = match_brace(toks, code, fn_open);
        ranges.emplace_back(fn_open, fn_close);
        j = fn_close;
      }
    }
    return ranges;
  }

  /// Append the code-index ranges of `namespace ...kernels... { ... }`
  /// bodies (qualified spellings like `namespace shmd::nn::kernels` count;
  /// nested anonymous namespaces are covered by the enclosing range).
  /// Only called for files under src/nn/kernels/.
  static void append_kernel_namespace_ranges(
      const std::vector<Token>& toks, const std::vector<std::size_t>& code,
      std::vector<std::pair<std::size_t, std::size_t>>& ranges) {
    for (std::size_t ci = 0; ci + 1 < code.size(); ++ci) {
      const Token& t = toks[code[ci]];
      if (t.kind != TokenKind::kIdentifier || t.text != "namespace") continue;
      bool is_kernels = false;
      std::size_t body_open = code.size();
      for (std::size_t j = ci + 1; j < code.size(); ++j) {
        const Token& h = toks[code[j]];
        if (h.kind == TokenKind::kIdentifier && h.text == "kernels") is_kernels = true;
        if (h.kind == TokenKind::kPunct && (h.text == ";" || h.text == "{")) {
          if (h.text == "{") body_open = j;
          break;
        }
      }
      if (!is_kernels || body_open == code.size()) continue;
      const std::size_t body_close = match_brace(toks, code, body_open);
      ranges.emplace_back(body_open, body_close);
      ci = body_open;  // nested namespaces are inside the recorded range
    }
  }

  static bool inside_any(const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
                         std::size_t ci) {
    for (const auto& [first, last] : ranges) {
      if (ci > first && ci < last) return true;
    }
    return false;
  }

  static Operand classify_left(const std::vector<Token>& toks,
                               const std::vector<std::size_t>& code, std::size_t star) {
    const Token& prev = toks[code[star - 1]];
    if (prev.kind == TokenKind::kNumber) {
      return integer_literal(prev.text) ? Operand::kInt : Operand::kFloat;
    }
    if (prev.kind == TokenKind::kIdentifier) {
      if (stmt_keyword(prev.text)) return Operand::kNone;  // `return *ptr` etc.
      if (type_like(prev.text)) return Operand::kTypeLike;
      if (integer_named(prev.text)) return Operand::kInt;
      return Operand::kUnknown;
    }
    if (prev.kind != TokenKind::kPunct) return Operand::kNone;
    if (prev.text == "]") return Operand::kUnknown;  // element of some array
    if (prev.text == ")") return classify_call_result(toks, code, star - 1);
    if (prev.text == ">") {
      // `foo<T>* x` — template-id in a declarator.
      return Operand::kTypeLike;
    }
    return Operand::kNone;
  }

  /// Walk back over a balanced `( ... )` and classify what produced it.
  static Operand classify_call_result(const std::vector<Token>& toks,
                                      const std::vector<std::size_t>& code,
                                      std::size_t close_paren) {
    int depth = 0;
    std::size_t j = close_paren;
    for (;; --j) {
      const Token& t = toks[code[j]];
      if (t.kind == TokenKind::kPunct && t.text == ")") ++depth;
      if (t.kind == TokenKind::kPunct && t.text == "(") {
        if (--depth == 0) break;
      }
      if (j == 0) return Operand::kUnknown;
    }
    if (j == 0) return Operand::kUnknown;
    const Token& before = toks[code[j - 1]];
    if (before.kind == TokenKind::kIdentifier) {
      if (stmt_keyword(before.text)) return Operand::kNone;  // `if (x) *p = ...`
      if (before.text == "sizeof") return Operand::kInt;
      if (integer_named(before.text)) return Operand::kInt;  // e.g. parameter_count()
      return Operand::kUnknown;
    }
    if (before.kind == TokenKind::kPunct && before.text == ">") {
      // Probably `xxx_cast<T>(...)`: find the matching '<' and the keyword.
      int angle = 0;
      std::size_t a = j - 1;
      for (;; --a) {
        const Token& t = toks[code[a]];
        if (t.kind == TokenKind::kPunct && t.text == ">") ++angle;
        if (t.kind == TokenKind::kPunct && t.text == "<") {
          if (--angle == 0) break;
        }
        if (a == 0) return Operand::kUnknown;
      }
      if (a == 0) return Operand::kUnknown;
      const Token& kw = toks[code[a - 1]];
      if (kw.kind == TokenKind::kIdentifier && cast_keyword(kw.text)) {
        return classify_cast_types(toks, code, a, j - 1);
      }
    }
    return Operand::kUnknown;
  }

  static Operand classify_right(const std::vector<Token>& toks,
                                const std::vector<std::size_t>& code, std::size_t star) {
    std::size_t n = star + 1;
    const Token* next = &toks[code[n]];
    // Skip a unary sign: `a * -b`.
    if (next->kind == TokenKind::kPunct && (next->text == "-" || next->text == "+")) {
      if (n + 1 >= code.size()) return Operand::kNone;
      next = &toks[code[++n]];
    }
    if (next->kind == TokenKind::kNumber) {
      return integer_literal(next->text) ? Operand::kInt : Operand::kFloat;
    }
    if (next->kind == TokenKind::kIdentifier) {
      if (next->text == "sizeof") return Operand::kInt;
      if (cast_keyword(next->text)) {
        // `x * static_cast<T>(y)`: classify T.
        if (n + 1 < code.size() && toks[code[n + 1]].text == "<") {
          int angle = 0;
          for (std::size_t j = n + 1; j < code.size(); ++j) {
            const Token& t = toks[code[j]];
            if (t.kind == TokenKind::kPunct && t.text == "<") ++angle;
            if (t.kind == TokenKind::kPunct && t.text == ">") {
              if (--angle == 0) return classify_cast_types(toks, code, n + 1, j);
            }
          }
        }
        return Operand::kUnknown;
      }
      if (integer_named(next->text)) return Operand::kInt;
      return Operand::kUnknown;
    }
    if (next->kind == TokenKind::kPunct && next->text == "(") return Operand::kUnknown;
    return Operand::kNone;
  }
};

// ---------------------------------------------------------------------------
// R2 — RNG discipline
// ---------------------------------------------------------------------------

class RngDisciplineRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "R2"; }
  [[nodiscard]] std::string_view name() const noexcept override { return "rng-discipline"; }
  [[nodiscard]] std::string_view suppression_tag() const noexcept override { return "rng-ok"; }
  [[nodiscard]] std::string_view rationale() const noexcept override {
    return "ad-hoc randomness (std::rand, std::random_device) breaks run-to-run determinism "
           "and the per-request (seed, seq) streams; use the rng/ RandomSource hierarchy";
  }

  [[nodiscard]] bool applies(const SourceFile& f) const override {
    return f.in_dir("src/") && !f.in_dir("src/rng/entropy.");
  }

  void check(const SourceFile& f, std::vector<Diagnostic>& out) const override {
    static const std::set<std::string_view> kBanned = {
        "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "random_device"};
    for (const Token& tok : f.tokens()) {
      if (tok.kind != TokenKind::kIdentifier || !kBanned.contains(tok.text)) continue;
      out.push_back({f.path(), tok.line, std::string(id()),
                     "'" + tok.text + "' undermines seeded determinism",
                     "draw randomness from the project RandomSource hierarchy (rng/) so every "
                     "stream is seeded, logged, and jump()-splittable; if this use is genuinely "
                     "outside that discipline, annotate: // shmd-lint: rng-ok(<reason>)"});
    }
  }
};

// ---------------------------------------------------------------------------
// R3 — stream hygiene
// ---------------------------------------------------------------------------

class StreamHygieneRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "R3"; }
  [[nodiscard]] std::string_view name() const noexcept override { return "stream-hygiene"; }
  [[nodiscard]] std::string_view suppression_tag() const noexcept override { return "stream-ok"; }
  [[nodiscard]] std::string_view rationale() const noexcept override {
    return "library code computes, it does not narrate: stdout belongs to benches/examples; "
           "stray prints corrupt the figure pipelines' machine-read output";
  }

  [[nodiscard]] bool applies(const SourceFile& f) const override { return f.in_dir("src/"); }

  void check(const SourceFile& f, std::vector<Diagnostic>& out) const override {
    static const std::set<std::string_view> kBanned = {"cout", "printf", "puts", "putchar"};
    const std::vector<Token>& toks = f.tokens();
    const std::vector<std::size_t> code = code_indices(toks);
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& tok = toks[code[ci]];
      if (tok.kind != TokenKind::kIdentifier) continue;
      bool hit = kBanned.contains(tok.text);
      // fprintf/fputs only when explicitly aimed at stdout.
      if (!hit && (tok.text == "fprintf" || tok.text == "fputs") && ci + 2 < code.size()) {
        hit = toks[code[ci + 1]].text == "(" && toks[code[ci + 2]].text == "stdout";
      }
      if (!hit) continue;
      out.push_back({f.path(), tok.line, std::string(id()),
                     "'" + tok.text + "' writes to stdout from library code",
                     "return data (or take an std::ostream&/sink parameter) and let the caller "
                     "print; std::cerr stays available for diagnostics; deliberate CLI output is "
                     "annotatable: // shmd-lint: stream-ok(<reason>)"});
    }
  }
};

// ---------------------------------------------------------------------------
// R4 — header hygiene
// ---------------------------------------------------------------------------

struct IncludeLine {
  int line = 0;
  std::string path;  // text between the delimiters
};

std::optional<IncludeLine> parse_include(const Token& directive) {
  std::string_view s = directive.text;
  if (!s.starts_with("#")) return std::nullopt;
  s.remove_prefix(1);
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  if (!s.starts_with("include")) return std::nullopt;
  s.remove_prefix(7);
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  if (s.empty()) return std::nullopt;
  const char open = s.front();
  const char close = open == '<' ? '>' : (open == '"' ? '"' : '\0');
  if (close == '\0') return std::nullopt;
  const std::size_t end = s.find(close, 1);
  if (end == std::string_view::npos) return std::nullopt;
  return IncludeLine{directive.line, std::string(s.substr(1, end - 1))};
}

bool is_pragma_once(const Token& directive) {
  std::string_view s = directive.text;
  if (!s.starts_with("#")) return false;
  s.remove_prefix(1);
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  return s.starts_with("pragma") && s.find("once") != std::string_view::npos;
}

class HeaderHygieneRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "R4"; }
  [[nodiscard]] std::string_view name() const noexcept override { return "header-hygiene"; }
  [[nodiscard]] std::string_view suppression_tag() const noexcept override { return "header-ok"; }
  [[nodiscard]] std::string_view rationale() const noexcept override {
    return "#pragma once first in every header, include blocks alphabetized, no duplicate "
           "includes — so include-what-you-use stays reviewable at production scale";
  }

  [[nodiscard]] bool applies(const SourceFile& f) const override {
    // Header hygiene extends beyond the library: the bench and example
    // binaries are the project's public face, and unsorted includes there
    // rot just as fast.
    return f.in_dir("src/") || f.in_dir("bench/") || f.in_dir("examples/");
  }

  void check(const SourceFile& f, std::vector<Diagnostic>& out) const override {
    if (f.is_header()) check_pragma_once(f, out);
    check_includes(f, out);
  }

 private:
  static void check_pragma_once(const SourceFile& f, std::vector<Diagnostic>& out) {
    const Token* first_directive = nullptr;
    const Token* pragma = nullptr;
    bool code_before_pragma = false;
    for (const Token& tok : f.tokens()) {
      if (tok.kind == TokenKind::kComment) continue;
      if (tok.kind == TokenKind::kDirective) {
        if (first_directive == nullptr) first_directive = &tok;
        if (is_pragma_once(tok)) {
          pragma = &tok;
          break;
        }
        continue;
      }
      code_before_pragma = true;  // expression tokens before any pragma once
      break;
    }
    if (pragma == nullptr) {
      out.push_back({f.path(), 1, "R4", "header is missing #pragma once",
                     "every header starts with #pragma once (before any other directive)"});
      return;
    }
    if (code_before_pragma || first_directive != pragma) {
      out.push_back({f.path(), pragma->line, "R4",
                     "#pragma once must be the first directive in the header",
                     "move #pragma once above every include and declaration"});
    }
  }

  static void check_includes(const SourceFile& f, std::vector<Diagnostic>& out) {
    std::vector<std::vector<IncludeLine>> blocks;
    std::set<std::string> seen;
    for (const Token& tok : f.tokens()) {
      if (tok.kind == TokenKind::kComment) continue;
      if (tok.kind != TokenKind::kDirective) {
        if (!blocks.empty() && !blocks.back().empty()) blocks.emplace_back();
        continue;
      }
      std::optional<IncludeLine> inc = parse_include(tok);
      if (!inc) {
        if (!blocks.empty() && !blocks.back().empty()) blocks.emplace_back();
        continue;
      }
      if (!seen.insert(inc->path).second) {
        out.push_back({f.path(), inc->line, "R4", "duplicate #include \"" + inc->path + "\"",
                       "delete the repeated include"});
      }
      if (blocks.empty() || (!blocks.back().empty() && blocks.back().back().line + 1 != inc->line)) {
        blocks.emplace_back();
      }
      blocks.back().push_back(std::move(*inc));
    }
    for (const std::vector<IncludeLine>& block : blocks) {
      for (std::size_t i = 1; i < block.size(); ++i) {
        if (block[i].path < block[i - 1].path) {
          out.push_back({f.path(), block[i].line, "R4",
                         "include block not alphabetized: \"" + block[i].path + "\" sorts before "
                         "\"" + block[i - 1].path + "\"",
                         "keep each contiguous include block sorted (clang-format does this "
                         "automatically)"});
          break;  // one diagnostic per block is enough to fix the sort
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// R5 — socket discipline
// ---------------------------------------------------------------------------

class SocketDisciplineRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "R5"; }
  [[nodiscard]] std::string_view name() const noexcept override { return "socket-discipline"; }
  [[nodiscard]] std::string_view suppression_tag() const noexcept override { return "socket-ok"; }
  [[nodiscard]] std::string_view rationale() const noexcept override {
    return "all socket and readiness syscalls live in src/net/ — transport concerns leaking "
           "into scoring, fault, or model code couple the detector to I/O and make the "
           "determinism contract unauditable";
  }

  [[nodiscard]] bool applies(const SourceFile& f) const override {
    return f.in_dir("src/") && !f.in_dir("src/net/");
  }

  void check(const SourceFile& f, std::vector<Diagnostic>& out) const override {
    static const std::set<std::string_view> kBanned = {
        "socket",     "bind",          "listen",     "accept",    "accept4",
        "connect",    "send",          "recv",       "sendto",    "recvfrom",
        "sendmsg",    "recvmsg",       "setsockopt", "getsockopt", "shutdown",
        "epoll_create", "epoll_create1", "epoll_ctl", "epoll_wait", "eventfd"};
    const std::vector<Token>& toks = f.tokens();
    const std::vector<std::size_t> code = code_indices(toks);
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& tok = toks[code[ci]];
      if (tok.kind != TokenKind::kIdentifier || !kBanned.contains(tok.text)) continue;
      // Only flag *calls* — `conn.send(...)` method declarations elsewhere
      // would be a different name anyway, but `foo.accept` as a field read
      // is not a syscall.
      if (ci + 1 >= code.size() || toks[code[ci + 1]].kind != TokenKind::kPunct ||
          toks[code[ci + 1]].text != "(") {
        continue;
      }
      out.push_back({f.path(), tok.line, std::string(id()),
                     "socket/readiness call '" + tok.text + "' outside src/net/",
                     "keep transport syscalls behind the src/net/ boundary (NetServer/NetClient); "
                     "a deliberate exception takes // shmd-lint: socket-ok(<reason>)"});
    }
  }
};

// ---------------------------------------------------------------------------
// R6 — lock discipline
// ---------------------------------------------------------------------------

class LockDisciplineRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "R6"; }
  [[nodiscard]] std::string_view name() const noexcept override { return "lock-discipline"; }
  [[nodiscard]] std::string_view suppression_tag() const noexcept override { return "lock-free"; }
  [[nodiscard]] std::string_view rationale() const noexcept override {
    return "concurrent layers use the annotated util::Mutex/util::CondVar primitives so Clang "
           "-Wthread-safety can prove the lock protocol; raw std::mutex is invisible to the "
           "analysis, and an unannotated guard documents nothing";
  }

  [[nodiscard]] bool applies(const SourceFile& f) const override {
    return f.in_dir("src/serve/") || f.in_dir("src/net/") || f.in_dir("src/runtime/") ||
           f.in_dir("src/admit/");
  }

  void check(const SourceFile& f, std::vector<Diagnostic>& out) const override {
    const std::vector<Token>& toks = f.tokens();
    const std::vector<std::size_t> code = code_indices(toks);
    check_raw_primitives(f, toks, code, out);

    // Names that appear as an argument of any SHMD_* thread-safety macro
    // anywhere in this file — the set of mutexes something is annotated
    // against.
    std::set<std::string_view> annotated_against;
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& tok = toks[code[ci]];
      if (tok.kind != TokenKind::kIdentifier || !tok.text.starts_with("SHMD_")) continue;
      if (ci + 1 >= code.size() || toks[code[ci + 1]].text != "(") continue;
      int depth = 0;
      for (std::size_t j = ci + 1; j < code.size(); ++j) {
        const Token& a = toks[code[j]];
        if (a.kind == TokenKind::kPunct && a.text == "(") ++depth;
        if (a.kind == TokenKind::kPunct && a.text == ")" && --depth == 0) break;
        if (a.kind == TokenKind::kIdentifier) annotated_against.insert(a.text);
      }
    }

    for (std::size_t ci = 0; ci + 1 < code.size(); ++ci) {
      const Token& tok = toks[code[ci]];
      if (tok.kind != TokenKind::kIdentifier) continue;
      const Token& next = toks[code[ci + 1]];
      if (next.kind != TokenKind::kIdentifier) continue;  // `Mutex&` params etc.
      if (tok.text == "Mutex" && is_declaration(toks, code, ci + 1)) {
        // A mutex that guards nothing annotated is either dead or hiding
        // its protocol from the analysis.
        if (!annotated_against.contains(next.text)) {
          out.push_back({f.path(), next.line, std::string(id()),
                         "mutex '" + next.text + "' guards no annotated state",
                         "annotate the members it protects with SHMD_GUARDED_BY(" + next.text +
                             ") (and condition variables with SHMD_CV_WAITS_ON(" + next.text +
                             ")); a mutex that intentionally guards no member takes "
                             "// shmd-lint: lock-free(<reason>)"});
        }
      } else if (tok.text == "CondVar" && is_declaration(toks, code, ci + 1)) {
        // The declaration (through `;`) must name the mutex the CV waits
        // on — CVs have no Clang TSA model, so this marker is the only
        // machine-visible record of the pairing.
        bool paired = false;
        for (std::size_t j = ci + 2; j < code.size(); ++j) {
          const Token& d = toks[code[j]];
          if (d.kind == TokenKind::kPunct && (d.text == ";" || d.text == "{")) break;
          if (d.kind == TokenKind::kIdentifier &&
              (d.text == "SHMD_CV_WAITS_ON" || d.text == "SHMD_GUARDED_BY")) {
            paired = true;
            break;
          }
        }
        if (!paired) {
          out.push_back({f.path(), next.line, std::string(id()),
                         "condition variable '" + next.text + "' does not declare its mutex",
                         "append SHMD_CV_WAITS_ON(<mutex>) to the declaration so the wait "
                         "protocol is machine-readable; a deliberate exception takes "
                         "// shmd-lint: lock-free(<reason>)"});
        }
      }
    }
  }

 private:
  /// True when code[name_index] looks like a declared entity name: the
  /// token after it is `;`, `{` (brace init), or an SHMD_* annotation.
  static bool is_declaration(const std::vector<Token>& toks, const std::vector<std::size_t>& code,
                             std::size_t name_index) {
    if (name_index + 1 >= code.size()) return false;
    const Token& after = toks[code[name_index + 1]];
    if (after.kind == TokenKind::kPunct && (after.text == ";" || after.text == "{")) return true;
    return after.kind == TokenKind::kIdentifier && after.text.starts_with("SHMD_");
  }

  static void check_raw_primitives(const SourceFile& f, const std::vector<Token>& toks,
                                   const std::vector<std::size_t>& code,
                                   std::vector<Diagnostic>& out) {
    // std primitives invisible to thread-safety analysis, with the
    // annotated replacement to name in the hint.
    static const std::set<std::string_view> kRawMutex = {
        "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex", "shared_mutex",
        "shared_timed_mutex"};
    static const std::set<std::string_view> kRawCv = {"condition_variable",
                                                      "condition_variable_any"};
    static const std::set<std::string_view> kRawLock = {"lock_guard", "unique_lock", "scoped_lock",
                                                        "shared_lock"};
    for (const std::size_t i : code) {
      const Token& tok = toks[i];
      if (tok.kind != TokenKind::kIdentifier) continue;
      std::string replacement;
      if (kRawMutex.contains(tok.text)) {
        replacement = "util::Mutex";
      } else if (kRawCv.contains(tok.text)) {
        replacement = "util::CondVar";
      } else if (kRawLock.contains(tok.text)) {
        replacement = "util::MutexLock";
      } else {
        continue;
      }
      out.push_back({f.path(), tok.line, "R6",
                     "raw std::" + tok.text + " is invisible to thread-safety analysis",
                     "use " + replacement + " (util/sync.hpp) so Clang -Wthread-safety can see "
                     "the acquire/release protocol; a deliberate exception takes "
                     "// shmd-lint: lock-free(<reason>)"});
    }
  }
};

// ---------------------------------------------------------------------------
// R8 — determinism taint
// ---------------------------------------------------------------------------

class DeterminismTaintRule final : public Rule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "R8"; }
  [[nodiscard]] std::string_view name() const noexcept override { return "determinism-taint"; }
  [[nodiscard]] std::string_view suppression_tag() const noexcept override {
    return "determinism-ok";
  }
  [[nodiscard]] std::string_view rationale() const noexcept override {
    return "the pure scoring layers must be replayable bit-for-bit from (seed, input): a wall "
           "clock, thread id, or thread_local read makes the verdict depend on when or where "
           "it ran, which no test can pin down";
  }

  [[nodiscard]] bool applies(const SourceFile& f) const override {
    return (f.in_dir("src/nn/") || f.in_dir("src/hmd/") || f.in_dir("src/faultsim/") ||
            f.in_dir("src/rng/")) &&
           !f.in_dir("src/rng/entropy.");
  }

  void check(const SourceFile& f, std::vector<Diagnostic>& out) const override {
    static const std::set<std::string_view> kBanned = {
        "system_clock", "steady_clock", "high_resolution_clock", "clock_gettime", "gettimeofday",
        "timespec_get", "localtime",    "gmtime",                "mktime",        "get_id",
        "thread_local"};
    const std::vector<Token>& toks = f.tokens();
    const std::vector<std::size_t> code = code_indices(toks);
    for (std::size_t ci = 0; ci < code.size(); ++ci) {
      const Token& tok = toks[code[ci]];
      if (tok.kind != TokenKind::kIdentifier) continue;
      bool hit = kBanned.contains(tok.text);
      // `::time(...)` / `std::time(...)` — the bare name is too common
      // (variables, members) to ban outright.
      if (!hit && tok.text == "time" && ci > 0 && ci + 1 < code.size()) {
        hit = toks[code[ci - 1]].text == "::" && toks[code[ci + 1]].text == "(";
      }
      if (!hit) continue;
      out.push_back({f.path(), tok.line, std::string(id()),
                     "'" + tok.text + "' taints the deterministic scoring path",
                     "pure layers compute from (seed, input) only — take timestamps or ids as "
                     "parameters from the runtime/serve layer if needed; a sound exception "
                     "takes // shmd-lint: determinism-ok(<reason>)"});
    }
  }
};

// ---------------------------------------------------------------------------
// R7 — atomic ordering (whole-project)
// ---------------------------------------------------------------------------

class AtomicOrderingRule final : public ProjectRule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "R7"; }
  [[nodiscard]] std::string_view name() const noexcept override { return "atomic-ordering"; }
  [[nodiscard]] std::string_view suppression_tag() const noexcept override { return "seq-cst-ok"; }
  [[nodiscard]] std::string_view rationale() const noexcept override {
    return "every atomic operation in src/ names its std::memory_order explicitly: an implicit "
           "seq_cst is a fence nobody chose and a review burden nobody can discharge; the "
           "member registry is cross-file so uses in a .cpp of atomics declared in its header "
           "are still checked";
  }

  void check_project(const std::vector<SourceFile>& files,
                     std::vector<Diagnostic>& out) const override {
    // Pass 1: every std::atomic<...>/std::atomic_flag member or variable
    // name declared anywhere in the project.
    std::set<std::string> atomics;
    for (const SourceFile& f : files) collect_atomic_names(f, atomics);

    // Pass 2: judge the call sites.
    for (const SourceFile& f : files) {
      if (!f.in_dir("src/")) continue;
      check_calls(f, atomics, out);
    }
  }

 private:
  static void collect_atomic_names(const SourceFile& f, std::set<std::string>& atomics) {
    const std::vector<Token>& toks = f.tokens();
    const std::vector<std::size_t> code = code_indices(toks);
    for (std::size_t ci = 0; ci + 1 < code.size(); ++ci) {
      const Token& tok = toks[code[ci]];
      if (tok.kind != TokenKind::kIdentifier) continue;
      if (tok.text == "atomic_flag") {
        const Token& next = toks[code[ci + 1]];
        if (next.kind == TokenKind::kIdentifier) atomics.insert(next.text);
        continue;
      }
      if (tok.text != "atomic" || toks[code[ci + 1]].text != "<") continue;
      // Walk the template argument list. When the angle depth returns to
      // zero the next token is the declared name — unless the atomic was
      // itself a template argument (std::array<std::atomic<u64>, N> x),
      // in which case a `,` or `>` follows and the name comes after the
      // *enclosing* list closes.
      int depth = 0;
      for (std::size_t j = ci + 1; j < code.size(); ++j) {
        const Token& t = toks[code[j]];
        if (t.kind == TokenKind::kPunct) {
          if (t.text == "<") ++depth;
          if (t.text == ">") --depth;
          if (t.text == ">>") depth -= 2;
          if (t.text == ";") break;  // declaration ended without a name we can see
        }
        if (depth > 0) continue;
        if (j + 1 >= code.size()) break;
        const Token& next = toks[code[j + 1]];
        if (next.kind == TokenKind::kIdentifier) {
          atomics.insert(next.text);
          break;
        }
        if (next.kind == TokenKind::kPunct && (next.text == "," || next.text == ">")) {
          depth = 1;  // still inside an enclosing template list; keep walking
          continue;
        }
        break;
      }
    }
  }

  static void check_calls(const SourceFile& f, const std::set<std::string>& atomics,
                          std::vector<Diagnostic>& out) {
    // Methods only an atomic has — checked wherever they are called.
    static const std::set<std::string_view> kUnambiguous = {
        "fetch_add", "fetch_sub", "fetch_and", "fetch_or", "fetch_xor",
        "compare_exchange_weak", "compare_exchange_strong", "test_and_set"};
    // Methods many types have — checked only when the receiver is a known
    // atomic member (this is what the cross-file registry buys).
    static const std::set<std::string_view> kReceiverGated = {"load",  "store", "exchange",
                                                              "wait",  "test",  "clear"};
    const std::vector<Token>& toks = f.tokens();
    const std::vector<std::size_t> code = code_indices(toks);
    for (std::size_t ci = 1; ci + 1 < code.size(); ++ci) {
      const Token& tok = toks[code[ci]];
      if (tok.kind != TokenKind::kIdentifier) continue;
      const Token& before = toks[code[ci - 1]];
      if (before.kind != TokenKind::kPunct || (before.text != "." && before.text != "->")) {
        continue;
      }
      if (toks[code[ci + 1]].text != "(") continue;
      bool check = false;
      if (kUnambiguous.contains(tok.text)) {
        check = true;
      } else if (kReceiverGated.contains(tok.text) && ci >= 2) {
        const std::string receiver = receiver_name(toks, code, ci - 2);
        check = atomics.contains(receiver);
      }
      if (!check) continue;
      if (names_memory_order(toks, code, ci + 1)) continue;
      out.push_back(
          {f.path(), tok.line, "R7",
           "atomic '" + tok.text + "' call relies on the implicit seq_cst memory order",
           "name the ordering explicitly (e.g. std::memory_order_relaxed for counters, "
           "acquire/release for handoffs); where sequential consistency is genuinely required, "
           "say so: // shmd-lint: seq-cst-ok(<why>)"});
    }
  }

  /// Name of the expression ending at code[end]: an identifier directly,
  /// or the identifier before a balanced `[...]` subscript
  /// (latency_buckets_[b].load). Empty when unresolvable.
  static std::string receiver_name(const std::vector<Token>& toks,
                                   const std::vector<std::size_t>& code, std::size_t end) {
    const Token& last = toks[code[end]];
    if (last.kind == TokenKind::kIdentifier) return last.text;
    if (last.kind == TokenKind::kPunct && last.text == "]") {
      int depth = 0;
      for (std::size_t j = end;; --j) {
        const Token& t = toks[code[j]];
        if (t.kind == TokenKind::kPunct && t.text == "]") ++depth;
        if (t.kind == TokenKind::kPunct && t.text == "[" && --depth == 0) {
          if (j == 0) return {};
          const Token& base = toks[code[j - 1]];
          return base.kind == TokenKind::kIdentifier ? base.text : std::string{};
        }
        if (j == 0) break;
      }
    }
    return {};
  }

  /// True when the balanced argument list opening at code[open_paren]
  /// contains an identifier naming a std::memory_order constant.
  static bool names_memory_order(const std::vector<Token>& toks,
                                 const std::vector<std::size_t>& code, std::size_t open_paren) {
    int depth = 0;
    for (std::size_t j = open_paren; j < code.size(); ++j) {
      const Token& t = toks[code[j]];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "(") ++depth;
        if (t.text == ")" && --depth == 0) return false;
      }
      if (t.kind == TokenKind::kIdentifier && t.text.starts_with("memory_order")) return true;
    }
    return false;
  }
};

// ---------------------------------------------------------------------------
// R9 — layering (whole-project)
// ---------------------------------------------------------------------------

class LayeringRule final : public ProjectRule {
 public:
  [[nodiscard]] std::string_view id() const noexcept override { return "R9"; }
  [[nodiscard]] std::string_view name() const noexcept override { return "layering"; }
  [[nodiscard]] std::string_view suppression_tag() const noexcept override { return "layer-ok"; }
  [[nodiscard]] std::string_view rationale() const noexcept override {
    return "cross-directory includes must descend the layer DAG (util/rng at the bottom, "
           "redteam at the top): an upward or sideways include couples a pure layer to a "
           "concurrent or transport one and the determinism contract stops being auditable";
  }

  /// Module layers. A module is the longest table entry that prefixes a
  /// path on a '/' boundary — nested submodules (nn/kernels under nn) get
  /// their own row. An include from A to B (A != B) is legal iff
  /// layer(A) > layer(B) — strictly, so same-layer modules stay mutually
  /// independent — with one structural exception: a parent module may
  /// include its own nested submodule (nn -> nn/kernels), never the
  /// reverse, keeping the submodule a leaf. Modules not listed (and files
  /// outside src/: bench, examples, tools, tests) are unconstrained
  /// consumers.
  static constexpr std::pair<std::string_view, int> kLayers[] = {
      {"util", 0}, {"rng", 0},     {"trace", 1},   {"faultsim", 1}, {"volt", 1},
      {"nn", 2},   {"nn/kernels", 2}, {"eval", 3},  {"sys", 3},     {"hmd", 4},
      {"attack", 5}, {"runtime", 5}, {"admit", 6},  {"serve", 7},   {"net", 8},
      {"redteam", 9},
  };

  /// Longest kLayers entry that is a whole-segment prefix of `rel`
  /// ("nn/kernels/dot.cpp" -> "nn/kernels", "nn/network.cpp" -> "nn"),
  /// or empty when no entry matches.
  static std::string_view module_of(std::string_view rel) {
    std::string_view best;
    for (const auto& [name, layer] : kLayers) {
      (void)layer;
      if (rel.size() <= name.size() || rel[name.size()] != '/') continue;
      if (!rel.starts_with(name)) continue;
      if (name.size() > best.size()) best = name;
    }
    return best;
  }

  static int layer_of(std::string_view module) {
    for (const auto& [name, layer] : kLayers) {
      if (name == module) return layer;
    }
    return -1;
  }

  /// True when `inner` is a nested submodule of `outer` (outer == "nn",
  /// inner == "nn/kernels").
  static bool submodule_of(std::string_view inner, std::string_view outer) {
    return inner.size() > outer.size() && inner[outer.size()] == '/' &&
           inner.starts_with(outer);
  }

  void check_project(const std::vector<SourceFile>& files,
                     std::vector<Diagnostic>& out) const override {
    for (const SourceFile& f : files) {
      if (!f.in_dir("src/")) continue;
      const std::string_view path = f.path();
      const std::string_view from_mod = module_of(path.substr(4));
      if (from_mod.empty()) continue;  // directly under src/: in no module
      const int from_layer = layer_of(from_mod);
      for (const Token& tok : f.tokens()) {
        if (tok.kind != TokenKind::kDirective) continue;
        const std::optional<IncludeLine> inc = parse_include(tok);
        if (!inc) continue;
        if (inc->path.find('/') == std::string::npos) continue;  // system or local header
        const std::string_view to_mod = module_of(inc->path);
        if (to_mod.empty() || to_mod == from_mod) continue;
        if (submodule_of(to_mod, from_mod)) continue;  // parent -> own nested submodule
        const int to_layer = layer_of(to_mod);
        if (from_layer > to_layer) continue;
        out.push_back(
            {f.path(), inc->line, "R9",
             "layering violation: src/" + std::string(from_mod) + "/ (layer " +
                 std::to_string(from_layer) + ") includes \"" + inc->path + "\" (layer " +
                 std::to_string(to_layer) + ")",
             "the layer DAG descends redteam > net > serve > admit > runtime/attack > hmd > "
             "eval/sys > nn > trace/faultsim/volt > util/rng, and nn/kernels is a leaf "
             "submodule only nn may reach into; move the shared piece down a layer or invert "
             "the dependency; a deliberate exception takes // shmd-lint: layer-ok(<reason>)"});
      }
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<FaultCoverageRule>());
  rules.push_back(std::make_unique<RngDisciplineRule>());
  rules.push_back(std::make_unique<StreamHygieneRule>());
  rules.push_back(std::make_unique<HeaderHygieneRule>());
  rules.push_back(std::make_unique<SocketDisciplineRule>());
  rules.push_back(std::make_unique<LockDisciplineRule>());
  rules.push_back(std::make_unique<DeterminismTaintRule>());
  return rules;
}

std::vector<std::unique_ptr<ProjectRule>> default_project_rules() {
  std::vector<std::unique_ptr<ProjectRule>> rules;
  rules.push_back(std::make_unique<AtomicOrderingRule>());
  rules.push_back(std::make_unique<LayeringRule>());
  return rules;
}

}  // namespace shmd::lint
