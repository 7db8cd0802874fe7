#!/usr/bin/env python3
"""detlint — determinism & hot-path static analysis for the anyqos tree.

The DES engine's headline guarantee is that two runs at the same seed are
byte-identical, and every refactor in this repo leans on that guarantee
(compare-timeline.py, the chaos matrix, the bench gates). detlint machine-
enforces the five properties the compiler never checks — the determinism
contract written down in DESIGN.md §12:

  global-state      no global / function-`static` mutable state in src/
  rng-ownership     no rand()/srand(), std::random_device, or RNG engine
                    construction outside src/des/random.{h,cpp}; every
                    stream is derived from a des::Simulator instance
  wall-clock        no host clock reads (system_clock/steady_clock/
                    high_resolution_clock::now, time(), gettimeofday, ...)
                    in simulation code — the DES clock is the only clock
  unordered-artifact-iteration
                    no iteration over std::unordered_map/std::unordered_set
                    in artifact-writing paths (trace, timeline, metrics,
                    flight recorder, CSV/JSONL writers) — hash order must
                    never reach an artifact byte
  hot-path-std-function
                    no std::function (or <functional>) in files annotated
                    `// detlint: hot-path` — the event hot path dispatches
                    through des::Action's inline storage only

Exceptions are declared in-tree with ANYQOS_DETLINT_ALLOW(rule, "reason")
(src/util/annotations.h) on the finding's line or the line directly above
it; the macro's comment form (`// ANYQOS_DETLINT_ALLOW(...)`) works where a
statement cannot appear (e.g. mem-initializer lists). Unknown rule names,
empty reasons, and suppressions that match nothing are findings themselves,
so stale ALLOWs cannot accumulate.

Analysis is lexical (Python stdlib only): comments and string literals are
masked before rules run, declarations of unordered members are correlated
between a .cpp and its paired header, and the file list is the src/ tree
optionally cross-checked against a compile_commands.json (sources missing
from the build are reported in the JSON summary, not as findings).

Usage:
  tools/detlint/detlint.py [--root DIR] [--format text|json] [--output F]
                           [--compile-commands PATH] [--list-rules]

Exit status: 0 clean, 1 unsuppressed findings, 2 usage/configuration error.
"""

import argparse
import fnmatch
import json
import os
import re
import sys

# --- rule registry ----------------------------------------------------------

RULES = {
    "global-state": "mutable global or function-static state",
    "rng-ownership": "RNG engine constructed outside src/des/random",
    "wall-clock": "host clock read in simulation code",
    "unordered-artifact-iteration":
        "unordered-container iteration on an artifact-writing path",
    "hot-path-std-function": "std::function in a hot-path file",
}

# ANYQOS_DETLINT_ALLOW takes the underscored form of the rule id (it must be
# a valid C++ token); map it back.
ALLOW_TOKEN = {rule.replace("-", "_"): rule for rule in RULES}

# Files that own RNG engine construction (rule rng-ownership's seam).
RNG_OWNERS = ("src/des/random.h", "src/des/random.cpp")

# Artifact-writing paths for rule unordered-artifact-iteration: everything
# that serializes state (trace, timeline, metrics, flight recorder, CSV/JSONL
# writers) plus the state containers those writers walk. A file can also opt
# in with a `// detlint: artifact-path` marker.
ARTIFACT_GLOBS = (
    "src/obs/*",
    "src/audit/*",
    "src/sim/trace.*",
    "src/sim/metrics.*",
    "src/sim/metrics_export.*",
    "src/sim/flow_table.*",
    "src/sim/simulation.*",
    "src/signaling/soft_state.*",
    "src/signaling/resilient.*",
    "src/util/table.*",
)

# Hot-path files for rule hot-path-std-function. The in-file
# `// detlint: hot-path` marker extends this set.
HOT_PATH_GLOBS = (
    "src/des/event_queue.*",
    "src/des/simulator.*",
    "src/des/action.*",
)

SOURCE_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc", ".cxx")

ALLOW_RE = re.compile(
    r"ANYQOS_DETLINT_ALLOW\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*,\s*"
    r'"((?:[^"\\]|\\.)*)"\s*\)')

# The annotations header defines the macro; its docs name every rule token.
ANNOTATION_FILES = ("src/util/annotations.h",)


class Finding:
    def __init__(self, path, line, rule, message, snippet=""):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        self.snippet = snippet.strip()
        self.suppressed = False
        self.reason = None

    def as_dict(self):
        record = {
            "file": self.path,
            "line": self.line,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
            "suppressed": self.suppressed,
        }
        if self.reason is not None:
            record["reason"] = self.reason
        return record


def mask_comments_and_strings(text):
    """Blanks comments, string literals, and char literals, preserving line
    structure so findings keep their line numbers."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal? Look back for R prefix.
                if out and out[-1] == "R" and (len(out) < 2 or not out[-2].isalnum()):
                    match = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1:])
                    if match:
                        raw_delim = ")" + match.group(1) + '"'
                        state = "raw"
                        out.append('"')
                        i += 1
                        continue
                state = "string"
                out.append('"')
                i += 1
                continue
            if c == "'":
                # Skip digit separators (1'000) — only treat as char literal
                # when not sandwiched between alphanumerics.
                prev = out[-1] if out else ""
                if prev.isdigit() and nxt.isalnum():
                    out.append(c)
                    i += 1
                    continue
                state = "char"
                out.append("'")
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append('"')
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append("'")
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # raw string
            if text.startswith(raw_delim, i):
                out.append(raw_delim)
                i += len(raw_delim)
                state = "code"
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


def matches_any(path, globs):
    return any(fnmatch.fnmatch(path, pattern) for pattern in globs)


# --- per-rule scanners ------------------------------------------------------

STATIC_LOCAL_RE = re.compile(r"^\s*static\s+(?!assert\b)([A-Za-z_][\w:<>,\s*&]*?)\s*"
                             r"\b([A-Za-z_]\w*)\s*(=|\{|;|\[)")
STATIC_SKIP_RE = re.compile(r"\bstatic\s+(const\b|constexpr\b|inline\s+const|"
                            r"inline\s+constexpr)")
GLOBAL_DEF_RE = re.compile(r"^([A-Za-z_][\w:<>,\s*&]*?)\s+([A-Za-z_]\w*)\s*(=[^=]|\{|;)")
GLOBAL_SKIP_KEYWORDS = (
    "const ", "constexpr ", "using ", "typedef ", "namespace ", "class ",
    "struct ", "enum ", "template", "friend ", "return ", "extern ",
    "#", "public", "private", "protected", "case ", "default:", "goto ",
)


def function_signature_like(line):
    """True for declarations whose name is immediately followed by `(`:
    functions, not variables (heuristic; parenthesized initializers of
    mutable statics are rare and flagged via = / {} forms)."""
    return re.search(r"\b[A-Za-z_]\w*\s*\(", line) is not None


class ScopeTracker:
    """Lexical scope stack: tells namespace scope apart from class bodies and
    function bodies by looking at what introduced each `{`."""

    def __init__(self):
        self.stack = []  # entries: "namespace" | "class" | "function" | "block"
        self.pending = ""  # text since last statement boundary

    def feed(self, line):
        for c in line:
            if c == "{":
                self.stack.append(self._classify(self.pending))
                self.pending = ""
            elif c == "}":
                if self.stack:
                    self.stack.pop()
                self.pending = ""
            elif c in ";":
                self.pending = ""
            else:
                self.pending += c
        self.pending += " "

    def _classify(self, text):
        text = text.strip()
        if re.search(r"\bnamespace\b", text):
            return "namespace"
        if re.search(r"\b(class|struct|union|enum)\b", text) and "(" not in text:
            return "class"
        if "(" in text or re.search(r"\b(if|else|for|while|do|switch|try|catch)\b",
                                    text):
            return "function"
        if not text:
            return "block"  # brace-init or stray block
        if "=" in text:
            return "block"  # initializer list
        return "function"

    def at_namespace_scope(self):
        return all(kind == "namespace" for kind in self.stack)

    def in_function(self):
        return any(kind in ("function", "block") for kind in self.stack)


def scan_global_state(path, lines, findings):
    tracker = ScopeTracker()
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        at_ns = tracker.at_namespace_scope()
        in_fn = tracker.in_function()
        tracker.feed(line)
        if not stripped or stripped.startswith("#"):
            continue
        # `static` declarations: mutable unless const/constexpr. At class
        # scope a `static Foo bar(...)` declaration is a member function —
        # skip signature-like lines.
        if re.match(r"\s*static\s", line) and "static_assert" not in line \
                and "static_cast" not in line:
            if STATIC_SKIP_RE.search(line):
                continue
            match = STATIC_LOCAL_RE.match(line)
            if match is None:
                continue
            if match.group(3) == "[":  # static arrays: still mutable state
                pass
            name_and_rest = line[line.index(match.group(2), match.start(2)):]
            if function_signature_like(stripped) and "=" not in stripped:
                continue
            findings.append(Finding(
                path, lineno, "global-state",
                f"mutable static state `{match.group(2)}` — hoist into "
                "instance state (des::Simulator isolation contract)",
                line))
            continue
        # Namespace-scope definitions: only in .cpp files (headers declare
        # types), only at pure namespace scope, outside functions.
        if not at_ns or in_fn:
            continue
        if not path.endswith((".cpp", ".cc", ".cxx")):
            continue
        if any(stripped.startswith(k) or f" {k}" in f" {stripped}"
               for k in GLOBAL_SKIP_KEYWORDS):
            continue
        match = GLOBAL_DEF_RE.match(stripped)
        if match is None:
            continue
        if function_signature_like(stripped.split("=")[0]):
            continue
        type_part = match.group(1).strip()
        if not type_part or type_part in ("else", "do"):
            continue
        findings.append(Finding(
            path, lineno, "global-state",
            f"mutable namespace-scope variable `{match.group(2)}` — global "
            "state breaks simulator isolation",
            line))


RNG_ENGINE_RE = re.compile(
    r"\b(?:std\s*::\s*)?(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"ranlux(?:24|48)(?:_base)?|knuth_b|random_device)\b")
RNG_CALL_RE = re.compile(r"(?<![\w.:])s?rand\s*\(")


def scan_rng_ownership(path, lines, findings):
    if path in RNG_OWNERS:
        return
    for lineno, line in enumerate(lines, start=1):
        match = RNG_ENGINE_RE.search(line)
        if match:
            findings.append(Finding(
                path, lineno, "rng-ownership",
                f"`{match.group(1)}` outside src/des/random — draw from a "
                "des::Simulator-owned RandomStream instead",
                line))
            continue
        if RNG_CALL_RE.search(line):
            findings.append(Finding(
                path, lineno, "rng-ownership",
                "C rand()/srand() — globally seeded, not per-instance; use "
                "a des::RandomStream",
                line))


WALL_CLOCK_RE = re.compile(
    r"\b(?:system_clock|steady_clock|high_resolution_clock)\s*::\s*now\b|"
    r"\b(?:gettimeofday|clock_gettime|timespec_get|localtime|gmtime|mktime|"
    r"ftime)\s*\(|"
    r"(?<![\w.:>])time\s*\(\s*(?:NULL|nullptr|0|&)|"
    r"(?<![\w.:>])clock\s*\(\s*\)")


def scan_wall_clock(path, lines, findings):
    for lineno, line in enumerate(lines, start=1):
        match = WALL_CLOCK_RE.search(line)
        if match:
            findings.append(Finding(
                path, lineno, "wall-clock",
                "host clock read — simulation code keeps time with "
                "des::Simulator::now() only",
                line))


UNORDERED_DECL_RE = re.compile(
    r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;]*?>\s*&?\s*"
    r"([A-Za-z_]\w*)\s*(?:;|=|\{)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?:\s*([^)]+)\)")
BEGIN_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*c?begin\s*\(")


def unordered_names(lines):
    names = set()
    for line in lines:
        for match in UNORDERED_DECL_RE.finditer(line):
            names.add(match.group(1))
    return names


def scan_unordered_iteration(path, lines, names, findings):
    if not names:
        return
    name_re = re.compile(r"\b(" + "|".join(re.escape(n) for n in sorted(names)) +
                         r")\b")
    for lineno, line in enumerate(lines, start=1):
        range_match = RANGE_FOR_RE.search(line)
        if range_match and name_re.search(range_match.group(1)):
            findings.append(Finding(
                path, lineno, "unordered-artifact-iteration",
                f"iteration over unordered container "
                f"`{name_re.search(range_match.group(1)).group(1)}` on an "
                "artifact path — extract keys and sort, or use std::map",
                line))
            continue
        begin_match = BEGIN_CALL_RE.search(line)
        if begin_match and begin_match.group(1) in names:
            findings.append(Finding(
                path, lineno, "unordered-artifact-iteration",
                f"`{begin_match.group(1)}.begin()` walks hash order on an "
                "artifact path — extract keys and sort, or use std::map",
                line))


STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")
FUNCTIONAL_INCLUDE_RE = re.compile(r'#\s*include\s*<functional>')


def scan_hot_path(path, lines, findings):
    for lineno, line in enumerate(lines, start=1):
        if STD_FUNCTION_RE.search(line):
            findings.append(Finding(
                path, lineno, "hot-path-std-function",
                "std::function in a hot-path file — use des::Action "
                "(inline storage, no type-erased allocation)",
                line))
        elif FUNCTIONAL_INCLUDE_RE.search(line):
            findings.append(Finding(
                path, lineno, "hot-path-std-function",
                "<functional> included in a hot-path file — the hot path "
                "must not depend on std::function",
                line))


# --- suppression handling ---------------------------------------------------

class Suppression:
    def __init__(self, path, line, rule, reason):
        self.path = path
        self.line = line
        self.rule = rule
        self.reason = reason
        self.used = False


def collect_suppressions(path, raw_lines, findings):
    suppressions = []
    if path in ANNOTATION_FILES:
        return suppressions  # the macro's own definition and docs
    for lineno, line in enumerate(raw_lines, start=1):
        for match in ALLOW_RE.finditer(line):
            token, reason = match.group(1), match.group(2)
            rule = ALLOW_TOKEN.get(token)
            if rule is None:
                findings.append(Finding(
                    path, lineno, "global-state",
                    f"ANYQOS_DETLINT_ALLOW names unknown rule `{token}` "
                    f"(known: {', '.join(sorted(ALLOW_TOKEN))})",
                    line))
                continue
            if not reason.strip():
                findings.append(Finding(
                    path, lineno, rule,
                    "ANYQOS_DETLINT_ALLOW with an empty reason — every "
                    "suppression must say why",
                    line))
                continue
            suppressions.append(Suppression(path, lineno, rule, reason))
        if "ANYQOS_DETLINT_ALLOW" in line and not ALLOW_RE.search(line) \
                and "define" not in line and "#" not in line.split("//")[0]:
            # Malformed macro use (e.g. non-literal reason) — surface it.
            if not line.strip().startswith("r\""):
                findings.append(Finding(
                    path, lineno, "global-state",
                    "unparseable ANYQOS_DETLINT_ALLOW — rule token and a "
                    "string-literal reason are required",
                    line))
    return suppressions


def apply_suppressions(findings, suppressions):
    by_site = {}
    for sup in suppressions:
        by_site.setdefault((sup.path, sup.rule), []).append(sup)
    for finding in findings:
        candidates = by_site.get((finding.path, finding.rule), [])
        for sup in candidates:
            # An ALLOW covers its own line and the next code line after it
            # (annotation-above-statement is the house style; a multi-line
            # statement keeps the finding within two lines in practice).
            if sup.line == finding.line or 0 < finding.line - sup.line <= 2:
                finding.suppressed = True
                finding.reason = sup.reason
                sup.used = True
                break
    unused = []
    for sup in suppressions:
        if not sup.used:
            unused.append(Finding(
                sup.path, sup.line, sup.rule,
                f"unused ANYQOS_DETLINT_ALLOW({sup.rule.replace('-', '_')}) — "
                "the finding it covered is gone; delete the suppression",
                ""))
    return unused


# --- driver -----------------------------------------------------------------

def discover_sources(root):
    sources = []
    src_root = os.path.join(root, "src")
    for dirpath, _, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                full = os.path.join(dirpath, name)
                sources.append(os.path.relpath(full, root))
    return sorted(sources)


def load_compile_commands(path, root):
    try:
        with open(path) as f:
            entries = json.load(f)
    except (OSError, ValueError) as error:
        raise SystemExit(f"detlint: cannot read compile commands {path}: {error}")
    compiled = set()
    for entry in entries:
        file_path = entry.get("file", "")
        if not os.path.isabs(file_path):
            file_path = os.path.join(entry.get("directory", ""), file_path)
        file_path = os.path.normpath(file_path)
        try:
            rel = os.path.relpath(file_path, root)
        except ValueError:
            continue
        if not rel.startswith(".."):
            compiled.add(rel)
    return compiled


def find_default_compile_commands(root):
    candidates = [os.path.join(root, "build", "compile_commands.json")]
    build_dir = os.path.join(root, "build")
    if os.path.isdir(build_dir):
        for name in sorted(os.listdir(build_dir)):
            candidates.append(os.path.join(build_dir, name, "compile_commands.json"))
    for candidate in candidates:
        if os.path.isfile(candidate):
            return candidate
    return None


def paired_header_lines(root, path):
    """For foo.cpp, the masked lines of foo.h (member declarations live
    there); empty when there is no paired header."""
    base, ext = os.path.splitext(path)
    if ext not in (".cpp", ".cc", ".cxx"):
        return []
    for header_ext in (".h", ".hpp"):
        header = base + header_ext
        if os.path.isfile(os.path.join(root, header)):
            with open(os.path.join(root, header), encoding="utf-8") as f:
                return mask_comments_and_strings(f.read()).splitlines()
    return []


def analyze_file(root, path, raw_text):
    findings = []
    raw_lines = raw_text.splitlines()
    masked_lines = mask_comments_and_strings(raw_text).splitlines()

    markers = set()
    for line in raw_lines[:5]:
        marker = re.match(r"\s*//\s*detlint:\s*([a-z-]+)", line)
        if marker:
            markers.add(marker.group(1))

    scan_global_state(path, masked_lines, findings)
    scan_rng_ownership(path, masked_lines, findings)
    scan_wall_clock(path, masked_lines, findings)

    if matches_any(path, ARTIFACT_GLOBS) or "artifact-path" in markers:
        names = unordered_names(masked_lines)
        names |= unordered_names(paired_header_lines(root, path))
        scan_unordered_iteration(path, masked_lines, names, findings)

    if matches_any(path, HOT_PATH_GLOBS) or "hot-path" in markers:
        scan_hot_path(path, masked_lines, findings)

    suppressions = collect_suppressions(path, raw_lines, findings)
    findings.extend(apply_suppressions(findings, suppressions))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="detlint", description="determinism & hot-path lint for src/")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels above this script)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json to cross-check coverage "
                             "(default: auto-detect under build/)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", default=None,
                        help="write the report here as well as stdout")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, description in RULES.items():
            print(f"{rule}: {description}")
        return 0

    root = args.root or os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"detlint: no src/ under root {root}", file=sys.stderr)
        return 2

    compile_db = args.compile_commands or find_default_compile_commands(root)
    compiled = load_compile_commands(compile_db, root) if compile_db else None

    sources = discover_sources(root)
    all_findings = []
    for path in sources:
        with open(os.path.join(root, path), encoding="utf-8") as f:
            raw_text = f.read()
        all_findings.extend(analyze_file(root, path, raw_text))

    uncompiled = []
    if compiled is not None:
        uncompiled = [p for p in sources
                      if p.endswith((".cpp", ".cc", ".cxx")) and p not in compiled]

    unsuppressed = [f for f in all_findings if not f.suppressed]
    suppressed = [f for f in all_findings if f.suppressed]

    report = {
        "version": 1,
        "root": os.path.abspath(root),
        "files_scanned": len(sources),
        "compile_commands": compile_db,
        "findings": [f.as_dict() for f in all_findings],
        "summary": {
            "unsuppressed": len(unsuppressed),
            "suppressed": len(suppressed),
            "by_rule": {
                rule: sum(1 for f in unsuppressed if f.rule == rule)
                for rule in RULES
            },
            "uncompiled_sources": uncompiled,
        },
    }

    if args.format == "json":
        text = json.dumps(report, indent=2)
        print(text)
    else:
        lines = []
        for finding in all_findings:
            status = f" [suppressed: {finding.reason}]" if finding.suppressed else ""
            lines.append(f"{finding.path}:{finding.line}: [{finding.rule}] "
                         f"{finding.message}{status}")
        lines.append(f"detlint: {len(sources)} files, "
                     f"{len(unsuppressed)} unsuppressed finding(s), "
                     f"{len(suppressed)} suppressed")
        if uncompiled:
            lines.append("detlint: note: sources absent from the compile "
                         "database: " + ", ".join(uncompiled))
        text = "\n".join(lines)
        print(text)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(json.dumps(report, indent=2) if args.format == "json" else text)
            f.write("\n")

    return 1 if unsuppressed else 0


if __name__ == "__main__":
    sys.exit(main())
