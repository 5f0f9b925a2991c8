#!/usr/bin/env python3
"""volut_lint — the repo's determinism contract as machine-checked rules.

The fleet simulator's load-bearing invariant is that results (FleetResult
counters, QoE rollups, EventLog timelines, SR outputs) are bit-identical at
1/2/4/8 workers. The rules below turn the folklore that protects that
invariant into named, suppressible static checks that run anywhere CI does
(regex + lightweight parsing over the tree; no compiler needed).

Rules
-----
  rand-source     All randomness flows through src/core/rng.h (Rng /
                  CounterRng seeded streams). std::rand, srand,
                  std::random_device and raw engine construction anywhere
                  else make draws depend on call order or machine state.
  wall-clock      Sim-time code never reads a real clock. Only
                  src/platform/timer.h and src/obs/trace.{h,cc} (the
                  sanctioned wall-clock wrappers) may touch
                  steady_clock/system_clock or the C time functions.
  unordered-iter  No iteration over std::unordered_{map,set} in
                  src/serve, src/spatial, src/sr unless the loop carries a
                  `// lint: order-independent` justification. Unordered
                  iteration feeding output order or float accumulation is
                  the prime suspect class for worker-count-dependent
                  results (see ROADMAP's octree_fresh watch entry).
  nondet-flags    No #pragma omp (threading outside ThreadPool), no
                  -ffast-math / -funsafe-math-optimizations /
                  -ffp-contract=fast, no FP_CONTRACT/float_control pragmas:
                  all of them license value-changing FP rewrites that break
                  bit-exactness between builds.
  obs-guard       Every `#if VOLUT_OBS_ENABLED` use must see the macro's
                  default first (via src/obs/metrics.h, src/obs/trace.h, a
                  header that defines its own #ifndef default, or a local
                  #ifndef block). An undefined macro silently evaluates to
                  0 in #if, so a missing include compiles the
                  instrumentation out of just that TU — an inconsistent
                  (ODR-hazardous) build instead of an error.
  layering        Every `#include "src/<module>/..."` edge must follow the
                  declared module DAG (MODULE_DEPS below — the core ->
                  platform -> spatial/nn/net -> sr/abr/stream/obs -> serve
                  layering every roadmap item builds on). A back-edge or an
                  undeclared cross-module include is a finding; the table
                  itself is validated acyclic on every run.

Suppression
-----------
A finding is suppressed by a trailing comment on the same line or a
comment on the line directly above:

    // lint: order-independent     (blessed justification for unordered-iter)
    // lint: allow(<rule-id>)      (generic escape hatch, any rule)

Both spellings are deliberate speed bumps: they name the rule being waived
so the waiver is reviewable.

Output: `file:line: rule-id: message` (clickable in editors/CI logs).
Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.

Self-test: `--self-test` runs every rule over its fixture pair under
fixtures/<rule-id>/ — violate.* must produce exactly the findings marked
with `// expect: <rule-id>` lines, clean.* must produce none. Registered
in ctest as volut_lint_selftest.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

SOURCE_SUFFIXES = {".cc", ".h", ".cpp", ".hpp", ".cu", ".cuh"}
CMAKE_NAMES = {"CMakeLists.txt"}
CMAKE_SUFFIXES = {".cmake"}

SUPPRESS_GENERIC = re.compile(r"lint:\s*allow\(\s*([a-z-]+)\s*\)")
SUPPRESS_ORDER = re.compile(r"lint:\s*order-independent\b")
FIXTURE_PATH = re.compile(r"lint-fixture:\s*(\S+)")
EXPECT = re.compile(r"expect:\s*([a-z-]+)")


@dataclass
class Finding:
    path: str  # repo-relative, forward slashes
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class SourceLine:
    code: str  # line with comments and string/char literals blanked
    comment: str  # comment text on this line (block + line comments)


def split_code_comments(text: str) -> list[SourceLine]:
    """Separates code from comments/strings, preserving line structure.

    String and character literals are blanked in the code channel so tokens
    inside them ("mt19937" in a message, say) never match a rule. Comment
    text is kept per line so suppressions and fixture directives work.
    """
    lines: list[SourceLine] = [SourceLine("", "")]
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    code: list[str] = []
    comment: list[str] = []

    def flush() -> None:
        lines[-1] = SourceLine("".join(code), "".join(comment))
        code.clear()
        comment.clear()

    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if ch == "\n":
            flush()
            lines.append(SourceLine("", ""))
            if state in ("line_comment", "string", "char"):
                state = "code"  # unterminated literal: be forgiving
            i += 1
            continue
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            m = re.match(r'R"([^(]{0,16})\(', text[i:]) if ch == "R" else None
            if m and (not code or not code[-1].isalnum()):
                raw_delim = ")" + m.group(1) + '"'
                state = "raw"
                code.append(" ")
                i += m.end()
                continue
            if ch == '"':
                state = "string"
                code.append(" ")
                i += 1
                continue
            if ch == "'" and not (code and (code[-1].isdigit() or code[-1] == "'")):
                # skip digit separators like 1'000'000
                state = "char"
                code.append(" ")
                i += 1
                continue
            code.append(ch)
            i += 1
        elif state == "line_comment":
            comment.append(ch)
            i += 1
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                comment.append(ch)
                i += 1
        elif state == "string":
            if ch == "\\":
                i += 2
            elif ch == '"':
                state = "code"
                i += 1
            else:
                i += 1
        elif state == "char":
            if ch == "\\":
                i += 2
            elif ch == "'":
                state = "code"
                i += 1
            else:
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                i += len(raw_delim)
            else:
                i += 1
    flush()
    return lines


@dataclass
class SourceFile:
    path: str  # repo-relative, forward slashes
    lines: list[SourceLine]
    raw_lines: list[str]

    def suppressed(self, lineno: int, rule: str) -> bool:
        """True when line `lineno` (1-based) carries or follows a waiver."""
        for ln in (lineno, lineno - 1):
            if 1 <= ln <= len(self.lines):
                comment = self.lines[ln - 1].comment
                m = SUPPRESS_GENERIC.search(comment)
                if m and m.group(1) == rule:
                    return True
                if rule == "unordered-iter" and SUPPRESS_ORDER.search(comment):
                    return True
        return False


def load_file(root: Path, rel: str) -> SourceFile:
    text = (root / rel).read_text(encoding="utf-8", errors="replace")
    sf = SourceFile(rel, split_code_comments(text), text.splitlines())
    # Fixtures pretend to live at a real tree path so dir-scoped rules apply.
    for line in sf.lines[:5]:
        m = FIXTURE_PATH.search(line.comment)
        if m:
            sf.path = m.group(1)
            break
    return sf


def in_dirs(path: str, dirs: tuple[str, ...]) -> bool:
    return any(path.startswith(d + "/") for d in dirs)


# ---------------------------------------------------------------------------
# rand-source
# ---------------------------------------------------------------------------

RAND_ALLOWED = ("src/core/rng.h",)
RAND_TOKENS = re.compile(
    r"(?<![\w:])(?:std::)?"
    r"(rand|srand|rand_r|drand48|random_device|mt19937(?:_64)?|"
    r"minstd_rand0?|default_random_engine|ranlux\w+|knuth_b)\b"
)
# rand/srand only count as the C functions when called.
CALL_ONLY = {"rand", "srand", "rand_r", "drand48"}


def check_rand_source(sf: SourceFile, findings: list[Finding]) -> None:
    if sf.path in RAND_ALLOWED or not sf.path.startswith("src/"):
        return
    for idx, line in enumerate(sf.lines, start=1):
        for m in RAND_TOKENS.finditer(line.code):
            token = m.group(1)
            rest = line.code[m.end():]
            if token in CALL_ONLY and not rest.lstrip().startswith("("):
                continue  # e.g. an identifier merely containing the name
            if sf.suppressed(idx, "rand-source"):
                continue
            findings.append(Finding(
                sf.path, idx, "rand-source",
                f"'{token}' outside src/core/rng.h — all randomness must "
                "flow through Rng/CounterRng seeded streams (draw order and "
                "machine state must not leak into results)"))


# ---------------------------------------------------------------------------
# wall-clock
# ---------------------------------------------------------------------------

CLOCK_ALLOWED = ("src/platform/timer.h", "src/obs/trace.h", "src/obs/trace.cc")
CLOCK_TOKENS = re.compile(
    r"(?<![\w:])(?:std::chrono::)?"
    r"(system_clock|steady_clock|high_resolution_clock|file_clock|"
    r"utc_clock|tai_clock|gps_clock)\b"
    r"|(?<![\w:.>])(time|clock|gettimeofday|clock_gettime|timespec_get|"
    r"localtime|localtime_r|gmtime|gmtime_r|ftime)\s*\("
)


def check_wall_clock(sf: SourceFile, findings: list[Finding]) -> None:
    if sf.path in CLOCK_ALLOWED or not sf.path.startswith("src/"):
        return
    for idx, line in enumerate(sf.lines, start=1):
        for m in CLOCK_TOKENS.finditer(line.code):
            token = m.group(1) or m.group(2)
            if sf.suppressed(idx, "wall-clock"):
                continue
            findings.append(Finding(
                sf.path, idx, "wall-clock",
                f"'{token}' outside the sanctioned wrappers "
                "(platform/timer.h, obs/trace) — sim paths run on simulated "
                "time; a real-clock read makes results timing-dependent"))


# ---------------------------------------------------------------------------
# unordered-iter
# ---------------------------------------------------------------------------

UNORDERED_DIRS = ("src/serve", "src/spatial", "src/sr")
UNORDERED_DECL = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR = re.compile(r"\bfor\s*\(")


def _match_angle(text: str, start: int) -> int:
    """Index just past the '>' matching the '<' at text[start], or -1."""
    depth = 0
    for i in range(start, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def unordered_names(code: str) -> set[str]:
    """Identifiers declared with an unordered container type (incl. aliases,
    one level deep: `using Foo = std::unordered_map<...>` then `Foo bar;`)."""
    names: set[str] = set()
    aliases: set[str] = set()
    for m in UNORDERED_DECL.finditer(code):
        end = _match_angle(code, m.end() - 1)
        if end < 0:
            continue
        after = code[end:]
        am = re.match(r"\s*(\w+)\s*[;{(=,)]", after)
        if am:
            names.add(am.group(1))
        # using Alias = std::unordered_map<...>;
        before = code[:m.start()]
        um = re.search(r"\busing\s+(\w+)\s*=\s*$", before)
        if um:
            aliases.add(um.group(1))
        tm = re.search(r"\btypedef\s*$", before)
        if tm:
            tn = re.match(r"\s*(\w+)\s*;", after)
            if tn:
                aliases.add(tn.group(1))
    for alias in aliases:
        for m in re.finditer(
                rf"\b{re.escape(alias)}\s+(\w+)\s*[;{{(=]", code):
            names.add(m.group(1))
    return names


def check_unordered_iter(sf: SourceFile, findings: list[Finding],
                         extra_names: set[str]) -> None:
    if not in_dirs(sf.path, UNORDERED_DIRS):
        return
    code = "\n".join(line.code for line in sf.lines)
    names = unordered_names(code) | extra_names
    for idx, line in enumerate(sf.lines, start=1):
        for fm in RANGE_FOR.finditer(line.code):
            # Join continuation lines so multi-line for-headers parse.
            header = line.code[fm.start():]
            j = idx
            while header.count("(") > header.count(")") and j < len(sf.lines):
                header += " " + sf.lines[j].code
                j += 1
            body = header[header.index("(") + 1:]
            reported = False
            rm = re.search(r":\s*([\w.>\-]+?)\s*\)", body)
            if rm and ";" not in body.split(")")[0]:
                target = re.split(r"[.>]", rm.group(1).replace("->", "."))[-1]
                if target in names:
                    reported = True
            im = re.search(r"=\s*([\w.\-]+?)\s*\.\s*c?begin\s*\(", body)
            if not reported and im:
                target = im.group(1).replace("->", ".").split(".")[-1]
                if target in names:
                    reported = True
            if reported and not sf.suppressed(idx, "unordered-iter"):
                findings.append(Finding(
                    sf.path, idx, "unordered-iter",
                    "iteration over an unordered container — hash order is "
                    "implementation-defined; if the drain feeds output order "
                    "or float accumulation it breaks bit-identity. Sort or "
                    "index the drain, or justify with "
                    "'// lint: order-independent'"))


# ---------------------------------------------------------------------------
# nondet-flags
# ---------------------------------------------------------------------------

NONDET_PRAGMA = re.compile(
    r"#\s*pragma\s+(omp\b|STDC\s+FP_CONTRACT\s+(?:ON|DEFAULT)|"
    r"float_control\s*\(\s*precise\s*,\s*off|fp\s+contract\s*\(\s*fast)"
)
NONDET_FLAG = re.compile(
    r"-f(?:fast-math|unsafe-math-optimizations|fp-contract=fast|"
    r"associative-math|reciprocal-math)\b"
)
# GCC's function-level escape hatch hides the flag inside a string literal,
# so it needs a raw-text pattern of its own.
NONDET_GCC_OPT = re.compile(
    r'#\s*pragma\s+GCC\s+optimize.*(?:fast-math|unsafe-math)')


def check_nondet_flags(sf: SourceFile, findings: list[Finding],
                       is_cmake: bool) -> None:
    for idx, line in enumerate(sf.lines, start=1):
        hits = []
        raw = sf.raw_lines[idx - 1] if idx <= len(sf.raw_lines) else ""
        if not is_cmake:
            pm = NONDET_PRAGMA.search(line.code)
            if pm:
                hits.append(f"#pragma {pm.group(1).split()[0]}")
            gm = NONDET_GCC_OPT.search(raw)
            if gm:
                hits.append("#pragma GCC optimize(fast-math)")
        # Flags hide in strings (CMake quoted option lists), so CMake files
        # are scanned as raw text with the comment tail stripped.
        scannable = raw.split("#", 1)[0] if is_cmake else line.code
        fm = NONDET_FLAG.search(scannable)
        if fm:
            hits.append(fm.group(0))
        for hit in hits:
            if sf.suppressed(idx, "nondet-flags"):
                continue
            findings.append(Finding(
                sf.path, idx, "nondet-flags",
                f"'{hit}' licenses value-changing FP rewrites or threading "
                "outside ThreadPool — both break bit-exact reproducibility "
                "across builds and worker counts"))


# ---------------------------------------------------------------------------
# obs-guard
# ---------------------------------------------------------------------------

OBS_USE = re.compile(r"#\s*(?:if|elif)\s+.*\bVOLUT_OBS_ENABLED\b")
OBS_DEFAULT = re.compile(r"#\s*ifndef\s+VOLUT_OBS_ENABLED\b")
INCLUDE = re.compile(r'#\s*include\s+"([^"]+)"')


def file_includes(sf: SourceFile) -> list[str]:
    # Includes are parsed from raw text: the code channel blanks string
    # literals, which would erase the quoted paths.
    return [m.group(1) for raw in sf.raw_lines
            for m in [INCLUDE.match(raw.strip())] if m]


def obs_defaulting_headers(files: dict[str, SourceFile]) -> set[str]:
    """Headers that establish the VOLUT_OBS_ENABLED default, transitively."""
    direct = {
        path for path, sf in files.items()
        if any(OBS_DEFAULT.search(line.code) for line in sf.lines)
    }
    includes = {path: file_includes(sf) for path, sf in files.items()}
    result = set(direct)
    changed = True
    while changed:
        changed = False
        for path, incs in includes.items():
            if path not in result and any(i in result for i in incs):
                result.add(path)
                changed = True
    return result


def check_obs_guard(sf: SourceFile, findings: list[Finding],
                    defaulting: set[str]) -> None:
    if not sf.path.startswith("src/"):
        return
    established = False
    for idx, line in enumerate(sf.lines, start=1):
        if OBS_DEFAULT.search(line.code):
            established = True
            continue
        raw = sf.raw_lines[idx - 1] if idx <= len(sf.raw_lines) else ""
        m = INCLUDE.match(raw.strip())
        if m and m.group(1) in defaulting:
            established = True
            continue
        if OBS_USE.search(line.code) and not established:
            if sf.suppressed(idx, "obs-guard"):
                continue
            findings.append(Finding(
                sf.path, idx, "obs-guard",
                "#if VOLUT_OBS_ENABLED before the macro's default is "
                "established — an undefined macro evaluates to 0, silently "
                "compiling instrumentation out of this TU only. Include "
                "src/obs/metrics.h / src/obs/trace.h (or add the #ifndef "
                "default) above the first use"))


# ---------------------------------------------------------------------------
# layering
# ---------------------------------------------------------------------------

# The declared module DAG: which src/ modules a module may include from,
# directly. This is the architecture contract every roadmap item (GPU
# backend seam, ABR plug-in layer, workload suite) builds on:
#
#     core                          (vocabulary: vec3, rng, mutex, ...)
#      └─ platform                  (threads, timers, device profiles)
#          └─ obs                   (metrics registry, trace spans)
#              ├─ codec  nn         (leaf algorithms; core-only)
#              ├─ spatial  net      (index structures / link models)
#              │   └─ data  metrics (traces, eval rollups)
#              └─ sr  abr           (SR pipeline / ABR policies)
#                  └─ baselines  stream   (single-session layer)
#                      └─ serve            (fleet event loop; top)
#
# Mirrors the target_link_libraries edges in CMakeLists.txt; the lint checks
# the actual `#include "src/..."` edges so a layering leak fails fast even
# though static archives would happily link it. Growing a new edge is a
# design decision: add it here (and to CMake) with a reason, or carry a
# reviewed `// lint: allow(layering)` waiver at the include site.
MODULE_DEPS: dict[str, tuple[str, ...]] = {
    "core": (),
    "platform": ("core",),
    "obs": ("core", "platform"),
    "codec": ("core",),
    "nn": ("core",),
    "net": ("core",),
    "spatial": ("core", "platform", "obs"),
    "data": ("core", "spatial"),
    "metrics": ("core", "platform", "spatial"),
    "sr": ("core", "platform", "spatial", "nn", "codec", "obs"),
    "abr": ("core", "net", "metrics"),
    "baselines": ("core", "platform", "spatial", "nn", "sr", "data"),
    "stream": ("core", "codec", "sr", "abr", "net", "data", "metrics",
               "baselines"),
    "serve": ("core", "platform", "obs", "net", "metrics", "abr", "data",
              "sr", "stream"),
}

SRC_MODULE_INCLUDE = re.compile(r"src/([A-Za-z0-9_]+)/")


def module_dag_cycle() -> list[str] | None:
    """Returns a cycle through MODULE_DEPS if one exists (internal error:
    the declared table must itself be a DAG, or 'back-edge' means nothing)."""
    color: dict[str, int] = {m: 0 for m in MODULE_DEPS}  # 0 new 1 open 2 done
    stack: list[str] = []

    def dfs(mod: str) -> list[str] | None:
        color[mod] = 1
        stack.append(mod)
        for dep in MODULE_DEPS[mod]:
            if color.get(dep) == 1:
                return stack[stack.index(dep):] + [dep]
            if color.get(dep) == 0:
                cycle = dfs(dep)
                if cycle:
                    return cycle
        color[mod] = 2
        stack.pop()
        return None

    for mod in MODULE_DEPS:
        if color[mod] == 0:
            cycle = dfs(mod)
            if cycle:
                return cycle
    return None


def validate_module_deps() -> None:
    for mod, deps in MODULE_DEPS.items():
        for dep in deps:
            if dep not in MODULE_DEPS:
                print(f"volut_lint: internal error: MODULE_DEPS[{mod!r}] "
                      f"names unknown module {dep!r}", file=sys.stderr)
                sys.exit(2)
    cycle = module_dag_cycle()
    if cycle:
        print("volut_lint: internal error: MODULE_DEPS is cyclic: "
              + " -> ".join(cycle), file=sys.stderr)
        sys.exit(2)


def check_layering(sf: SourceFile, findings: list[Finding]) -> None:
    parts = sf.path.split("/")
    if len(parts) < 3 or parts[0] != "src":
        return  # not in a module directory
    mod = parts[1]
    allowed = MODULE_DEPS.get(mod)
    if allowed is None:
        findings.append(Finding(
            sf.path, 1, "layering",
            f"module 'src/{mod}' is not in the declared module DAG — add a "
            "MODULE_DEPS entry (tools/volut_lint) stating what it may "
            "include, and mirror it in CMakeLists.txt"))
        return
    for idx, raw in enumerate(sf.raw_lines, start=1):
        m = INCLUDE.match(raw.strip())
        if not m:
            continue
        im = SRC_MODULE_INCLUDE.match(m.group(1))
        if not im:
            continue
        dep = im.group(1)
        if dep == mod or dep in allowed:
            continue
        if sf.suppressed(idx, "layering"):
            continue
        arrow = "may only include"
        if mod in MODULE_DEPS.get(dep, ()):
            arrow = "is included BY"  # a true back-edge closes a cycle
        findings.append(Finding(
            sf.path, idx, "layering",
            f"include of \"{m.group(1)}\" — 'src/{dep}' is outside "
            f"'{mod}'s declared dependencies ({', '.join(allowed) or 'none'}"
            f"); '{mod}' {arrow} '{dep}' in the module DAG. A new edge is a "
            "design decision: extend MODULE_DEPS + CMake, or justify with "
            "'// lint: allow(layering)'"))


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

RULES = ("rand-source", "wall-clock", "unordered-iter", "nondet-flags",
         "obs-guard", "layering")


def collect_targets(root: Path, args_paths: list[str]) -> list[str]:
    rels: list[str] = []
    explicit = [Path(p) for p in args_paths] if args_paths else [
        root / "src", root / "CMakeLists.txt"]
    for target in explicit:
        if not target.is_absolute():
            target = root / target
        if target.is_dir():
            for dirpath, dirnames, filenames in os.walk(target):
                dirnames.sort()
                for name in sorted(filenames):
                    p = Path(dirpath) / name
                    if p.suffix in SOURCE_SUFFIXES or name in CMAKE_NAMES \
                            or p.suffix in CMAKE_SUFFIXES:
                        rels.append(p.relative_to(root).as_posix())
        elif target.exists():
            rels.append(target.relative_to(root).as_posix())
        else:
            print(f"volut_lint: no such path: {target}", file=sys.stderr)
            sys.exit(2)
    return rels


def lint_files(root: Path, rels: list[str]) -> list[Finding]:
    files: dict[str, SourceFile] = {}
    for rel in rels:
        sf = load_file(root, rel)
        files[sf.path] = sf

    # obs-guard needs the include graph of the whole tree, not just the
    # checked subset, so headers always come from src/.
    graph_files = dict(files)
    src = root / "src"
    if src.is_dir():
        for p in sorted(src.rglob("*.h")):
            rel = p.relative_to(root).as_posix()
            if rel not in graph_files:
                graph_files[rel] = load_file(root, rel)
    defaulting = obs_defaulting_headers(graph_files)

    findings: list[Finding] = []
    for sf in files.values():
        is_cmake = sf.path.endswith(".cmake") or \
            sf.path.rsplit("/", 1)[-1] in CMAKE_NAMES
        if is_cmake:
            check_nondet_flags(sf, findings, is_cmake=True)
            continue
        check_rand_source(sf, findings)
        check_wall_clock(sf, findings)
        # Members declared in the paired header count for the .cc file.
        extra: set[str] = set()
        if sf.path.endswith(".cc"):
            header = files.get(sf.path[:-3] + ".h") or \
                graph_files.get(sf.path[:-3] + ".h")
            if header is not None:
                extra = unordered_names(
                    "\n".join(line.code for line in header.lines))
        check_unordered_iter(sf, findings, extra)
        check_nondet_flags(sf, findings, is_cmake=False)
        check_obs_guard(sf, findings, defaulting)
        check_layering(sf, findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def run_self_test(root: Path) -> int:
    fixtures = Path(__file__).resolve().parent / "fixtures"
    failures = 0
    for rule in RULES:
        rule_dir = fixtures / rule
        pairs = {"violate": None, "clean": None}
        for kind in pairs:
            matches = sorted(rule_dir.glob(f"{kind}.*"))
            if not matches:
                print(f"self-test: {rule}: missing {kind}.* fixture")
                failures += 1
                continue
            pairs[kind] = matches[0]
        if None in pairs.values():
            continue
        for kind, path in pairs.items():
            rel = path.relative_to(root).as_posix() if path.is_relative_to(
                root) else str(path)
            sf = load_file(root if path.is_relative_to(root) else
                           path.parent, rel if path.is_relative_to(root)
                           else path.name)
            findings = lint_files(
                root, [rel]) if path.is_relative_to(root) else []
            got = [(f.line, f.rule) for f in findings]
            if kind == "clean":
                if got:
                    print(f"self-test FAIL: {rule}/clean produced findings:")
                    for f in findings:
                        print(f"  {f.render()}")
                    failures += 1
                else:
                    print(f"self-test ok: {rule}/clean — 0 findings")
                continue
            expected = []
            for idx, line in enumerate(sf.lines, start=1):
                m = EXPECT.search(line.comment)
                if m:
                    expected.append((idx, m.group(1)))
            if not expected:
                print(f"self-test FAIL: {rule}/violate has no "
                      "'// expect: <rule>' markers")
                failures += 1
                continue
            if sorted(got) != sorted(expected):
                print(f"self-test FAIL: {rule}/violate expected "
                      f"{sorted(expected)}, got {sorted(got)}")
                for f in findings:
                    print(f"  {f.render()}")
                failures += 1
            else:
                print(f"self-test ok: {rule}/violate — "
                      f"{len(expected)} expected finding(s) matched")
    if failures:
        print(f"self-test: {failures} failure(s)")
        return 1
    print(f"self-test: all {len(RULES)} rules verified against fixtures")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        prog="volut_lint",
        description="determinism contract checker for the volut tree")
    parser.add_argument("paths", nargs="*",
                        help="files/dirs to check (default: src/ and "
                             "CMakeLists.txt under --root)")
    parser.add_argument("--root", default=None,
                        help="repository root (default: two levels up from "
                             "this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule against its fixture pair")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--only", action="append", choices=RULES,
                        metavar="RULE", default=None,
                        help="report only this rule's findings (repeatable); "
                             "all rules still run")
    args = parser.parse_args()

    # The layering table is itself contract: refuse to lint against a
    # MODULE_DEPS that is cyclic or names unknown modules.
    validate_module_deps()

    root = Path(args.root).resolve() if args.root else \
        Path(__file__).resolve().parents[2]

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0
    if args.self_test:
        return run_self_test(root)

    rels = collect_targets(root, args.paths)
    findings = lint_files(root, rels)
    if args.only:
        findings = [f for f in findings if f.rule in args.only]
    for f in findings:
        print(f.render())
    if findings:
        print(f"volut_lint: {len(findings)} finding(s) in {len(rels)} "
              "file(s)", file=sys.stderr)
        return 1
    print(f"volut_lint: clean ({len(rels)} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
