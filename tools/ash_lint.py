#!/usr/bin/env python3
"""ash-lint: determinism, units and semantic static analysis for the ash lab.

The virtual lab's headline guarantee is bit-exact reproducibility: the same
seed must give the same campaign on any machine, any thread count, any
checkpoint/resume split.  Most regressions against that guarantee come from
a handful of recognisable source patterns, and the rest break a small set
of declaration- and call-graph-level invariants, so one analyzer checks
both.  Token rules scan each file's comment- and string-stripped text:

  wall-clock      Wall-clock/time sources (std::chrono::*_clock, time(),
                  gettimeofday, ...) in simulation code.  Simulated time is
                  the only clock the models may read; host time is allowed
                  only in the observability layer (src/obs/, whose
                  obs::monotonic_ns also paces the fleet's deadlines) and
                  in bench harness timers (bench/, tests/obs/).

  rng             Unseeded or global RNG: rand(), srand(), drand48(),
                  std::random_device.  All randomness must flow through
                  ash::Rng / derive_seed (src/util/.../random.h) so streams
                  are named, seeded and replayable.

  unordered-iter  Range-for over a std::unordered_{map,set} (or an alias of
                  one declared in the same file).  Unordered iteration order
                  is implementation-defined, so any result merged from such
                  a loop can differ across standard libraries; iterate a
                  sorted view or an ordered container instead.

  float-physics   `float` in physics code (src/bti, src/fpga, src/tb,
                  src/mc, src/core).  The models are calibrated in double
                  precision; a single-precision narrowing silently changes
                  trajectories.  The rule also polices exponentials: the
                  float-precision exp family (expf, exp2f, expm1f) and any
                  homebrew exponential approximation (a float/double
                  function named like quick_exp / exp_approx) are findings
                  in physics code *and* src/util, with no sanctioned site:
                  the physics uses std::exp, and util::exp_batch is its
                  one batch path (every lane has the bits of std::exp,
                  pinned by tests/util/exp_batch_test.cpp).

  raw-double-api  A function parameter spelled `double <name>_{s,v,k,c,hz}`
                  in a *public* section of a public header of the physics
                  modules (src/{bti,fpga,tb,mc}/include).  Unit-suffixed
                  quantities crossing a module boundary must use the strong
                  types from ash/util/units.h (Seconds, Volts, Kelvin,
                  Celsius, Hertz).  Data members and return values are
                  unit-flow's; parameters elsewhere are out of scope (see
                  DESIGN.md sec. 9).

  unchecked-io    A std::ofstream/std::fstream variable whose stream state
                  is never examined anywhere in the file: no `!s`, no
                  .fail()/.good()/.bad()/.is_open()/.rdstate(), no
                  .exceptions() arming, no boolean test.  A full disk or a
                  torn write then fails silently and the campaign "result"
                  is garbage; check the stream after writing, or go through
                  util::atomic_write_file which throws on short writes.
                  The heuristic is file-scoped by name, so a check of any
                  same-named stream in the file counts.

  eintr           A bare blocking syscall (::read, ::write, ::poll,
                  ::waitpid, ::accept/::accept4, ::connect, ::recv,
                  ::send, ::nanosleep) in src/fleet/, outside a
                  util::retry_eintr wrapper.  The fleet layer mixes slow
                  syscalls with real signals (SIGCHLD from dying workers,
                  SIGTERM during drain), so EINTR is routine there and a
                  bare call treats the spurious failure as a real one.
                  ::close is deliberately exempt: retrying close can close
                  a descriptor the kernel already reused.

  metric-name     A metric registered (.counter/.gauge/.histogram) under a
                  literal name outside `[a-z0-9_.]+`: dots namespace,
                  underscores separate words; anything else breaks the
                  scrape-prefix filter and the key=value dump grammar.
                  Additionally, *any* registration call inside one of the
                  instrumented hot-path kernel files (the kernel_histogram
                  timer sites) is flagged: registration takes the registry mutex
                  per call — register once at setup and reuse the returned
                  reference.  Computed names elsewhere are skipped (they
                  are validated at runtime by what they render into).

  lenient-parse   std::sto*, strto*, ato* or std::istringstream in src/
                  (outside src/util/text_reader.cpp) or examples/.  Each
                  decides its own text grammar (whitespace, '+', hex,
                  inf/nan, partial tokens, saturation); persisted and wire
                  text and the examples' arguments are read through
                  util/text_reader.h and ash::parse_double only.

Declaration and call-graph rules read the same stripped text through a
declaration parser:

  signal-safety   Every function reachable from a registered fatal-signal
                  handler (`sa_handler = f`, `std::signal(SIG..., f)`) must
                  be on the async-signal-safe allowlist: the POSIX AS-safe
                  syscall set plus the pinned, separately-audited project
                  functions (obs::FlightRecorder::record / write_fd —
                  byte-identity and torn-dump tests own their safety
                  proof).  Reaching `malloc`, any iostream, a mutex,
                  `throw` or `new` on that path is a finding: a handler
                  that allocates can deadlock on the heap lock of the very
                  thread it interrupted.

  shard-purity    A lambda handed to `util::ThreadPool::parallel_for` (and
                  the project functions it calls, traversed to a bounded
                  depth) must not touch file-scope mutable globals,
                  non-const static locals, `errno` or errno-latching calls
                  (strtod family, strerror), or non-util RNG (rand,
                  drand48, std::random_device, std::mt19937, ...).  This
                  mechanizes the "bit-identical at any thread count"
                  guarantee: shard bodies may only write state they own by
                  index.

  orphan-header   A public header src/<m>/include/ash/<m>/X.h that nothing
                  in src/, tools/, bench/ or perfbench/ under --root
                  includes, whatever paths are scanned.  Its own .cpp,
                  tests/, examples/ and orphan headers (to a fixed point)
                  do not count: git history keeps deleted code.

  unit-flow       A suffix-named raw double (`_s`, `_v`, `_k`, `_c`, `_hz`)
                  appearing as a *public* struct/class data member
                  (`double x_v;`, `std::vector<double> periods_s;`) or as
                  the return type of a suffix-named function
                  (`double period_s(...)`) anywhere under `src/` is a
                  finding: quantities crossing a declaration boundary must
                  use the strong types from ash/util/units.h.  Parameters
                  are raw-double-api's, which covers the physics headers
                  only (DESIGN.md sec. 9 says why the two are not merged).

  protocol-exhaustiveness
                  Every `fleet::MessageType` enumerator must have a payload
                  codec struct (encode() + parse() in protocol.cpp), a
                  to_string classification, and a test under tests/fleet/
                  referencing it; every `fleet::ProtocolViolation` must be
                  classified in protocol.cpp and exercised by a
                  hostile-input test.  Cross-checks protocol.h,
                  protocol.cpp and tests/fleet/.

Frontend: one self-contained declaration parser feeds every rule, so the
lint depends on nothing beyond the Python standard library.  It resolves
calls by name, not by overload: its call graph is an over-approximation,
and it does not see through function pointers other than the
signal-registration idioms above (see DESIGN.md sec. 9 for the full
limits).

Any finding can be suppressed on its line with a trailing
`// ash-lint: allow(<rule>): <reason>` (comma-separate several rules).
The reason is mandatory: a bare `allow(<rule>)` does not suppress — it is
itself reported, because an unexplained escape is unreviewable.

Exit status is 0 when no findings survive suppression, 1 when any
finding does, and 2 on usage/internal errors (bad --root, a path that is
neither a file nor a directory, no files matched, unreadable compile
commands, unknown flags).  `--json` emits machine-readable findings
for CI.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, asdict

CXX_EXTENSIONS = (".h", ".hpp", ".cpp", ".cc", ".cxx")
DEFAULT_PATHS = ("src", "tools", "bench", "tests", "examples")

# The analyzer's own test fixtures intentionally violate every rule.
EXCLUDED_PARTS = ("lint/fixtures", "build")

ALLOW_RE = re.compile(
    r"ash-lint:\s*allow\(([a-z0-9_,\- ]+)\)(\s*:\s*(\S.*))?")

RULES = (
    "wall-clock",
    "rng",
    "unordered-iter",
    "float-physics",
    "raw-double-api",
    "unchecked-io",
    "eintr",
    "metric-name",
    "lenient-parse",
    "signal-safety",
    "shard-purity",
    "orphan-header",
    "unit-flow",
    "protocol-exhaustiveness",
)


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    message: str
    snippet: str


# --------------------------------------------------------------------------
# Lexer and declaration parser (the fallback frontend)
# --------------------------------------------------------------------------


def strip_code(text: str) -> str:
    """Blank out comments, string and char literals, preserving line layout.

    Replaced characters become spaces so that line/column arithmetic on the
    result still maps onto the original file.
    """
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == quote:
                state = "code"
            out.append("\n" if ch == "\n" else " ")
        i += 1
    return "".join(out)


CONTROL_KEYWORDS = frozenset(
    "if for while switch catch return do else new delete throw sizeof "
    "alignof decltype static_assert case goto co_await co_return "
    "co_yield".split())

CALL_RE = re.compile(r"(?<!\w)([A-Za-z_~][\w]*(?:::[\w~]+)*)\s*\(")
ACCESS_RE = re.compile(r"\b(public|protected|private)\s*:(?!:)")
PREPROC_RE = re.compile(r"^[ \t]*#.*$", re.MULTILINE)

MEMBER_DOUBLE_RE = re.compile(
    r"(?:^|[;{}:\s])double\s+(\w+_(?:s|v|k|c|hz))\s*(?:=[^;]*)?;")
MEMBER_VECTOR_RE = re.compile(
    r"(?:^|[;{}:\s])std::vector<\s*double\s*>\s+(\w+_(?:s|v|k|c|hz))"
    r"\s*(?:=[^;]*)?;")
RETURN_DOUBLE_RE = re.compile(
    r"(?:^|[;{}:\s])(?:virtual\s+|static\s+|constexpr\s+|inline\s+)*"
    r"double\s+((?:\w+::)*\w+_(?:s|v|k|c|hz))\s*\(")

GLOBAL_DECL_RE = re.compile(
    r"^\s*(?:volatile\s+)?(?:struct\s+|class\s+)?[\w:<>,\*&\s]+?"
    r"[\s\*&](\w+)\s*(?:\[[^\]]*\])?\s*(?:=[^;]*)?;\s*$")
GLOBAL_SKIP_RE = re.compile(
    r"\b(const|constexpr|constinit|using|typedef|namespace|return|"
    r"friend|template|extern|enum|atomic|thread_local)\b|[()]")

STATIC_LOCAL_RE = re.compile(
    r"(?<!\w)static\s+(?!const\b|constexpr\b)[\w:<>,\s\*&]+?[\s\*&]"
    r"(\w+)\s*(?:\[[^\]]*\])?\s*(?:=[^;{]*)?[;{]")

HANDLER_ASSIGN_RE = re.compile(r"\.\s*sa_handler\s*=\s*(\w+)")
SIGNAL_CALL_RE = re.compile(r"\bsignal\s*\(\s*SIG\w+\s*,\s*&?\s*([\w:]+)")

LAMBDA_START_RE = re.compile(r"\[[^\]]*\]\s*(?:\([^)]*\))?\s*(?:mutable\s*)?"
                             r"(?:->\s*[\w:<>]+\s*)?\{")


@dataclass
class Func:
    name: str            # simple name ("handle_fatal", "apply_members")
    qualified: str       # as written in the head ("BatchEnsemble::evolve")
    body: str            # stripped body text, braces excluded
    body_line: int       # line number of the opening brace


@dataclass
class Member:
    name: str
    line: int
    kind: str            # "double" | "vector<double>"
    owner: str           # enclosing class/struct name


@dataclass
class EnumDef:
    name: str
    enumerators: list  # (name, line)


class SourceFile:
    """One source file: its text, the stripped code every rule reads, and
    what the fallback declaration parser finds in it."""

    def __init__(self, path: str, rel: str):
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        self.rel = rel.replace(os.sep, "/")
        self.code = strip_code(text)
        self.lines = text.split("\n")
        self.code_lines = self.code.split("\n")
        # The parser also blanks preprocessor lines: their parentheses and
        # angle brackets would otherwise confuse statement chunking.
        self.decl_code = PREPROC_RE.sub(lambda m: " " * len(m.group(0)),
                                        self.code)
        self.functions: list[Func] = []
        self.members: list[Member] = []
        self.return_decls: list = []      # (name, line)
        self.enums: list[EnumDef] = []
        self.globals: dict[str, int] = {}  # mutable file-scope name -> line
        self._parse()

    def source_line(self, line_no: int) -> str:
        if 1 <= line_no <= len(self.lines):
            return self.lines[line_no - 1]
        return ""

    def _line_of(self, offset: int) -> int:
        return self.decl_code.count("\n", 0, offset) + 1

    # -- statement-oriented scanner ------------------------------------

    def _parse(self) -> None:
        code = self.decl_code
        n = len(code)
        i = 0
        chunk_start = 0
        # scope stack entries: ["namespace"|"class"|"block", name, access]
        scopes: list[list] = []

        def in_class() -> bool:
            return bool(scopes) and scopes[-1][0] == "class"

        def at_top() -> bool:
            return all(s[0] == "namespace" for s in scopes)

        while i < n:
            ch = code[i]
            if ch == ";":
                self._statement(code[chunk_start:i + 1], chunk_start, scopes)
                chunk_start = i + 1
            elif ch == "{":
                head = code[chunk_start:i]
                kind = self._classify_head(head)
                if kind[0] == "enum":
                    end = self._match_brace(i)
                    self._collect_enum(kind[1], code[i + 1:end], i + 1)
                    i = code.find(";", end)
                    if i < 0:
                        break
                    chunk_start = i + 1
                elif kind[0] == "function":
                    end = self._match_brace(i)
                    self._flush_access(head, scopes)
                    self.functions.append(
                        Func(kind[1].split("::")[-1], kind[1],
                             code[i + 1:end], self._line_of(i)))
                    # A suffix-named double-returning *definition* also
                    # counts for unit-flow (headers with inline bodies).
                    self._head_return_decl(head, chunk_start)
                    i = end
                    chunk_start = i + 1
                elif kind[0] == "namespace":
                    scopes.append(["namespace", kind[1], "public", True])
                    chunk_start = i + 1
                elif kind[0] == "class":
                    self._flush_access(head, scopes)
                    default = "private" if kind[2] == "class" else "public"
                    # A nested type declared in a non-public section is
                    # not API surface, nor is anything declared inside a
                    # function/initializer block.
                    exposed = True
                    if scopes:
                        top = scopes[-1]
                        if top[0] == "class":
                            exposed = top[2] == "public" and top[3]
                        elif top[0] == "block":
                            exposed = False
                    scopes.append(["class", kind[1], default, exposed])
                    chunk_start = i + 1
                else:
                    # brace-init, array initializer, lambda at file scope,
                    # extern "C" block...: treat as a transparent block.
                    scopes.append(["block", "", "public", False])
                    chunk_start = i + 1
            elif ch == "}":
                self._statement(code[chunk_start:i], chunk_start, scopes)
                if scopes:
                    scopes.pop()
                chunk_start = i + 1
                if i + 1 < n and code[i + 1] == ";":
                    chunk_start = i + 2
                    i += 1
            i += 1

    def _match_brace(self, open_at: int) -> int:
        depth = 0
        for j in range(open_at, len(self.decl_code)):
            c = self.decl_code[j]
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return j
        return len(self.decl_code) - 1

    def _classify_head(self, head: str):
        """Classify the text between the previous statement boundary and
        an opening brace."""
        # Trailing access labels belong to the class body, not the head.
        m = re.search(r"\bnamespace(\s+([\w:]+))?\s*$", head)
        if m:
            return ("namespace", m.group(2) or "<anon>")
        m = re.search(r"\benum\s+(?:class\s+|struct\s+)?(\w+)"
                      r"(?:\s*:\s*[\w:\s]+)?\s*$", head)
        if m:
            return ("enum", m.group(1))
        m = re.search(r"\b(class|struct|union)\s+(?:\[\[\w+\]\]\s*)?(\w+)"
                      r"(?:\s+final)?(?:\s*:\s*[^;{]*)?\s*$", head)
        if m and "(" not in head[m.end():]:
            return ("class", m.group(2), m.group(1))
        # Function definition: a call-ish pattern whose name is not a
        # control keyword, with balanced parens, not an assignment RHS.
        best = None
        for cm in CALL_RE.finditer(head):
            name = cm.group(1)
            if name.split("::")[-1] in CONTROL_KEYWORDS:
                continue
            best = name
        if best and "=" not in head.split("(")[0]:
            return ("function", best)
        return ("other",)

    def _flush_access(self, text: str, scopes: list) -> None:
        for am in ACCESS_RE.finditer(text):
            for s in reversed(scopes):
                if s[0] == "class":
                    s[2] = am.group(1)
                    break

    def _statement(self, stmt: str, offset: int, scopes: list) -> None:
        self._flush_access(stmt, scopes)
        # Text after the last access label is the declaration itself.
        last = None
        for am in ACCESS_RE.finditer(stmt):
            last = am
        decl = stmt[last.end():] if last else stmt
        decl_off = offset + (last.end() if last else 0)

        klass = None
        access = "public"
        exposed = True
        for s in reversed(scopes):
            if s[0] == "class":
                klass, access, exposed = s[1], s[2], s[3]
                break
            if s[0] == "block":
                return  # inside an initializer or unknown block: skip
        if klass is not None:
            if access != "public" or not exposed:
                return
            for regex, kind in ((MEMBER_DOUBLE_RE, "double"),
                                (MEMBER_VECTOR_RE, "vector<double>")):
                for m in regex.finditer(decl):
                    self.members.append(
                        Member(m.group(1),
                               self._line_of(decl_off + m.start(1)),
                               kind, klass))
            m = RETURN_DOUBLE_RE.search(decl)
            if m:
                self.return_decls.append(
                    (m.group(1), self._line_of(decl_off + m.start(1))))
            return

        # Namespace scope: free-function declarations and mutable globals.
        m = RETURN_DOUBLE_RE.search(decl)
        if m:
            self.return_decls.append(
                (m.group(1), self._line_of(decl_off + m.start(1))))
            return
        if "(" in decl or GLOBAL_SKIP_RE.search(decl):
            return
        gm = GLOBAL_DECL_RE.match(decl.strip()) or \
            GLOBAL_DECL_RE.match(" " + decl.replace("\n", " ").strip())
        if gm:
            self.globals[gm.group(1)] = self._line_of(decl_off)

    def _head_return_decl(self, head: str, offset: int) -> None:
        m = RETURN_DOUBLE_RE.search(head)
        if m:
            self.return_decls.append(
                (m.group(1), self._line_of(offset + m.start(1))))

    def _collect_enum(self, name: str, body: str, body_offset: int) -> None:
        enumerators = []
        for m in re.finditer(r"(?:^|,)\s*(\w+)", body):
            enumerators.append(
                (m.group(1), self._line_of(body_offset + m.start(1))))
        self.enums.append(EnumDef(name, enumerators))


def body_calls(body: str) -> list:
    """(name, offset) call expressions in a stripped body."""
    calls = []
    for m in CALL_RE.finditer(body):
        name = m.group(1)
        if name.split("::")[-1] in CONTROL_KEYWORDS:
            continue
        calls.append((name, m.start(1)))
    return calls


# --------------------------------------------------------------------------
# Findings and suppression
# --------------------------------------------------------------------------


class Report:
    """Findings and reasoned suppressions, de-duplicated by (rule, path,
    line, message): several call-graph paths can reach one site."""

    def __init__(self):
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []
        self._seen: set = set()

    def add(self, rule: str, sf: SourceFile, line: int, message: str) -> None:
        key = (rule, sf.rel, line, message)
        if key in self._seen:
            return
        self._seen.add(key)
        src = sf.source_line(line)
        f = Finding(rule, sf.rel, line, message, src.strip()[:160])
        m = ALLOW_RE.search(src)
        if m and rule in {r.strip() for r in m.group(1).split(",")}:
            if m.group(3):
                self.suppressed.append(f)
                return
            f.message = (
                f"suppression escape for '{rule}' carries no reason: "
                f"write `// ash-lint: allow({rule}): <why>` — an "
                "unexplained escape is unreviewable")
        self.findings.append(f)


# --------------------------------------------------------------------------
# Rule: wall-clock
# --------------------------------------------------------------------------

WALL_CLOCK_PATTERNS = (
    (re.compile(r"std::chrono::(system|steady|high_resolution)_clock"),
     "std::chrono clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w:])std::time\s*\("), "std::time()"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(NULL|nullptr|0)?\s*\)"), "time()"),
    (re.compile(r"(?<![\w:.])clock\s*\(\s*\)"), "clock()"),
)

# src/obs/ owns the one host clock (obs::monotonic_ns, obs/clock.h); the
# fleet's deadlines and heartbeats read it through that call, so a direct
# clock read anywhere else in src/ is a finding.
WALL_CLOCK_ALLOWED_PREFIXES = ("src/obs/", "bench/", "tests/obs/")


def rule_wall_clock(sf: SourceFile, report: Report) -> None:
    if sf.rel.startswith(WALL_CLOCK_ALLOWED_PREFIXES):
        return
    for no, line in enumerate(sf.code_lines, start=1):
        for pat, what in WALL_CLOCK_PATTERNS:
            if pat.search(line):
                report.add(
                    "wall-clock", sf, no,
                    f"{what} outside src/obs: models must use simulated "
                    "time (obs::set_sim_now / phase clocks); host-time "
                    "pacing reads obs::monotonic_ns (obs/clock.h)")
                break


# --------------------------------------------------------------------------
# Rule: rng
# --------------------------------------------------------------------------

RNG_PATTERNS = (
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\bdrand48\s*\("), "drand48()"),
    (re.compile(r"std::random_device"), "std::random_device"),
)

RNG_ALLOWED_PREFIXES = ("src/util/",)


def rule_rng(sf: SourceFile, report: Report) -> None:
    if sf.rel.startswith(RNG_ALLOWED_PREFIXES):
        return
    for no, line in enumerate(sf.code_lines, start=1):
        for pat, what in RNG_PATTERNS:
            if pat.search(line):
                report.add(
                    "rng", sf, no,
                    f"{what}: all randomness must come from ash::Rng with a "
                    "seed derived via derive_seed (see ash/util/random.h)")
                break


# --------------------------------------------------------------------------
# Rule: unordered-iter
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;={]*>[&\s]+(\w+)\s*[;={(]")
UNORDERED_ALIAS_RE = re.compile(
    r"using\s+(\w+)\s*=\s*std::unordered_(?:map|set|multimap|multiset)\b")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^;]*)\)\s*[{]?")


def rule_unordered_iter(sf: SourceFile, report: Report) -> None:
    # Names (variables and type aliases) known to be unordered in this file.
    unordered_vars: set[str] = set()
    alias_types: set[str] = set()
    for line in sf.code_lines:
        m = UNORDERED_DECL_RE.search(line)
        if m:
            unordered_vars.add(m.group(1))
        m = UNORDERED_ALIAS_RE.search(line)
        if m:
            alias_types.add(m.group(1))
    alias_decl_res = [
        re.compile(r"\b" + re.escape(t) + r"[&\s]+(\w+)\s*[;={(]")
        for t in alias_types
    ]
    for line in sf.code_lines:
        for pat in alias_decl_res:
            m = pat.search(line)
            if m:
                unordered_vars.add(m.group(1))

    for no, line in enumerate(sf.code_lines, start=1):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        range_expr = m.group(2).strip()
        tail = range_expr.split(".")[-1].split("->")[-1]
        tail_name = re.match(r"(\w+)", tail)
        direct_unordered = "unordered_" in range_expr
        if direct_unordered or (tail_name and tail_name.group(1)
                                in unordered_vars):
            report.add(
                "unordered-iter", sf, no,
                f"range-for over unordered container '{range_expr}': "
                "iteration order is implementation-defined; iterate a "
                "sorted view or an ordered container when results merge")


# --------------------------------------------------------------------------
# Rule: float-physics
# --------------------------------------------------------------------------

FLOAT_RE = re.compile(r"(?<![\w.])float\b")
PHYSICS_PREFIXES = ("src/bti/", "src/fpga/", "src/tb/", "src/mc/",
                    "src/core/")

# The exponential half of the rule: float-precision exp family calls, and
# definitions of an approximate exponential.
EXPF_CALL_RE = re.compile(
    r"(?<![\w.])(?:std::)?(expf|exp2f|expm1f|exp10f)\s*\(")
FAST_EXP_DEF_RE = re.compile(
    r"\b(?:float|double)\s+"
    r"(\w*(?:fast|approx|quick|cheap)\w*?exp\w*|\w*exp\w*(?:approx|fast)\w*)"
    r"\s*\(")
EXP_SCOPE_PREFIXES = PHYSICS_PREFIXES + ("src/util/",)


def rule_float_physics(sf: SourceFile, report: Report) -> None:
    in_physics = sf.rel.startswith(PHYSICS_PREFIXES)
    in_exp_scope = sf.rel.startswith(EXP_SCOPE_PREFIXES)
    if not in_exp_scope:
        return
    for no, line in enumerate(sf.code_lines, start=1):
        if in_physics and FLOAT_RE.search(line):
            report.add(
                "float-physics", sf, no,
                "float in a physics path: the models are calibrated in "
                "double precision; use double (or a units.h strong type)")
        m = EXPF_CALL_RE.search(line)
        if m:
            report.add(
                "float-physics", sf, no,
                f"{m.group(1)} is a single-precision exponential; use "
                "std::exp")
        m = FAST_EXP_DEF_RE.search(line)
        if m:
            report.add(
                "float-physics", sf, no,
                f"'{m.group(1)}' looks like an approximate exponential; "
                "the physics is calibrated against std::exp, so use it")


# --------------------------------------------------------------------------
# Rule: raw-double-api
# --------------------------------------------------------------------------

PUBLIC_HEADER_RE = re.compile(r"src/(bti|fpga|tb|mc)/include/.*\.h$")
RAW_DOUBLE_PARAM_RE = re.compile(r"\bdouble\s+(\w+_(?:s|v|k|c|hz))\b")
UNIT_TYPE_FOR_SUFFIX = {
    "s": "Seconds",
    "v": "Volts",
    "k": "Kelvin",
    "c": "Celsius",
    "hz": "Hertz",
}


def rule_raw_double_api(sf: SourceFile, report: Report) -> None:
    if not PUBLIC_HEADER_RE.search(sf.rel):
        return

    # Walk the stripped code, tracking (a) whether we are inside a
    # parameter list (paren depth > 0 immediately after an identifier) and
    # (b) the current access level of the innermost class/struct.
    #
    # scope_stack holds one entry per open brace: "class:<access>",
    # "struct:<access>" or "other".
    scope_stack: list[list[str]] = []
    pending: str | None = None  # class/struct seen, brace not yet opened
    paren_depth = 0

    def current_access() -> str:
        for entry in reversed(scope_stack):
            if entry[0] in ("class", "struct"):
                return entry[1]
        return "public"  # namespace scope: free functions are public API

    line_no = 1
    access_re = re.compile(r"\b(public|protected|private)\s*:")
    class_re = re.compile(r"\b(class|struct)\s+(\w+)")

    # Pre-scan each line for access specifiers / class heads, then walk
    # braces and parens character by character on the same line.
    for raw_line in sf.code_lines:
        cm = class_re.search(raw_line)
        if cm and ";" not in raw_line[cm.end():].split("{")[0]:
            pending = cm.group(1)
        am = access_re.search(raw_line)
        if am:
            for entry in reversed(scope_stack):
                if entry[0] in ("class", "struct"):
                    entry[1] = am.group(1)
                    break

        for col, ch in enumerate(raw_line):
            if ch == "{":
                if pending is not None:
                    scope_stack.append(
                        [pending,
                         "private" if pending == "class" else "public"])
                    pending = None
                else:
                    scope_stack.append(["other", ""])
            elif ch == "}":
                if scope_stack:
                    scope_stack.pop()
            elif ch == "(":
                paren_depth += 1
            elif ch == ")":
                paren_depth = max(0, paren_depth - 1)
            elif ch == "d" and paren_depth > 0:
                m = RAW_DOUBLE_PARAM_RE.match(raw_line, col)
                if m and current_access() == "public":
                    suffix = m.group(1).rsplit("_", 1)[1]
                    want = UNIT_TYPE_FOR_SUFFIX[suffix]
                    report.add(
                        "raw-double-api", sf, line_no,
                        f"parameter 'double {m.group(1)}' on a public API: "
                        f"use ash::{want} from ash/util/units.h so the unit "
                        "is part of the type")
        line_no += 1


# --------------------------------------------------------------------------
# Rule: unchecked-io
# --------------------------------------------------------------------------

# Write-capable file streams only: ostringstream cannot fail meaningfully
# and ifstream misuse shows up as parse failures downstream.
WRITE_STREAM_DECL_RE = re.compile(r"\bstd::o?fstream\s+(\w+)\s*[({]")
STATE_CHECK_TEMPLATES = (
    r"!\s*{n}\b",                                              # if (!os)
    r"\b{n}\s*\.\s*(?:fail|good|bad|is_open|rdstate|exceptions)\s*\(",
    r"\b(?:if|while)\s*\(\s*{n}\s*[)&|]",                      # if (os) ...
)


def rule_unchecked_io(sf: SourceFile, report: Report) -> None:
    for no, line in enumerate(sf.code_lines, start=1):
        m = WRITE_STREAM_DECL_RE.search(line)
        if not m:
            continue
        name = re.escape(m.group(1))
        if any(re.search(t.format(n=name), sf.code)
               for t in STATE_CHECK_TEMPLATES):
            continue
        report.add(
            "unchecked-io", sf, no,
            f"write stream '{m.group(1)}' is never state-checked: a full "
            "disk or torn write fails silently; test the stream after "
            f"writing (e.g. `if (!{m.group(1)})`) or use "
            "util::atomic_write_file")


# --------------------------------------------------------------------------
# Rule: eintr
# --------------------------------------------------------------------------

EINTR_SYSCALL_RE = re.compile(
    r"::(read|write|poll|waitpid|accept4?|connect|recv|send|nanosleep)\s*\(")

# The process/socket layer is the one place slow syscalls meet real
# signals; everywhere else the repo stays on C++ iostream/filesystem APIs.
EINTR_SCOPED_PREFIXES = ("src/fleet/",)


def rule_eintr(sf: SourceFile, report: Report) -> None:
    if not sf.rel.startswith(EINTR_SCOPED_PREFIXES):
        return
    for no, line in enumerate(sf.code_lines, start=1):
        m = EINTR_SYSCALL_RE.search(line)
        if not m:
            continue
        # The wrapper and the call usually share a line; clang-format may
        # push the lambda body one or two lines down.
        window = sf.code_lines[max(0, no - 3):no]
        if any("retry_eintr" in w for w in window):
            continue
        report.add(
            "eintr", sf, no,
            f"bare ::{m.group(1)}() can fail spuriously with EINTR when a "
            "signal lands (SIGCHLD from a dying worker, SIGTERM during "
            "drain); wrap the call in util::retry_eintr "
            "(ash/util/syscall.h).  ::close stays bare by design")


# --------------------------------------------------------------------------
# Rule: lenient-parse
# --------------------------------------------------------------------------

LENIENT_PARSE_RE = re.compile(
    r"\bstd::sto(?:d|f|i|l|ll|ld|ul|ull)\s*\("
    r"|(?<![\w.])(?:std::|::)?(?:strto(?:d|f|l|ld|ll|ul|ull)|ato(?:f|i|l|ll))"
    r"\s*\(|\bistringstream\b")


def rule_lenient_parse(sf: SourceFile, report: Report) -> None:
    if (not sf.rel.startswith(("src/", "examples/"))
            or sf.rel == "src/util/text_reader.cpp"):
        return
    for no, line in enumerate(sf.code_lines, start=1):
        m = LENIENT_PARSE_RE.search(line)
        if m:
            report.add(
                "lenient-parse", sf, no,
                f"'{m.group(0).rstrip('( ')}' decides its own text grammar "
                "(whitespace, '+', hex, inf/nan, partial tokens, overflow); "
                "read through util/text_reader.h so one module owns what "
                "persisted and wire text may spell")


# --------------------------------------------------------------------------
# Rule: metric-name
# --------------------------------------------------------------------------

METRIC_REG_RE = re.compile(r"[\w)\]>]\s*\.\s*(counter|gauge|histogram)\s*\(")
METRIC_LITERAL_RE = re.compile(
    r"\.\s*(?:counter|gauge|histogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_OK_RE = re.compile(r"^[a-z0-9_.]+$")

# The kernel-histogram ScopedTimer sites: per-sample hot paths whose cost
# is exactly what the profiler measures.  A registration there takes the registry
# mutex inside the timed region — register at setup, dereference in the
# kernel (see fleet::Service's latency_ array for the pattern).
METRIC_HOT_KERNEL_FILES = (
    "src/bti/trap_ensemble.cpp",
    "src/bti/batch_ensemble.cpp",
    "src/fpga/ring_oscillator.cpp",
    "src/tb/experiment_runner.cpp",
    "src/mc/system.cpp",
)


def rule_metric_name(sf: SourceFile, report: Report) -> None:
    hot = sf.rel in METRIC_HOT_KERNEL_FILES
    for no, line in enumerate(sf.code_lines, start=1):
        m = METRIC_REG_RE.search(line)
        if not m:
            continue
        if hot:
            report.add(
                "metric-name", sf, no,
                f".{m.group(1)}() inside an instrumented hot-path kernel: "
                "registration locks the registry mutex per call and bills "
                "the kernel being profiled; register once at setup and "
                "reuse the returned reference")
            continue
        src = sf.lines[no - 1] if no - 1 < len(sf.lines) else ""
        lm = METRIC_LITERAL_RE.search(src)
        if not lm:
            continue  # computed name: validated by what it renders into
        name = lm.group(1)
        if not METRIC_NAME_OK_RE.match(name):
            report.add(
                "metric-name", sf, no,
                f"metric name \"{name}\" violates [a-z0-9_.]+: dots "
                "namespace, underscores separate words; anything else "
                "breaks the scrape-prefix filter and the key=value dump "
                "grammar")


# --------------------------------------------------------------------------
# Rule: signal-safety
# --------------------------------------------------------------------------

# The POSIX async-signal-safe set the tree is allowed to lean on, plus
# project functions whose AS-safety is pinned by their own tests:
# FlightRecorder::record (atomics + fixed slots) and write_fd (write(2)
# into a stack buffer, byte-identical to serialize() by test).
AS_SAFE_CALLS = frozenset("""
    open close read write rename unlink fsync fdatasync raise kill _exit
    _Exit abort sigaction sigemptyset sigfillset sigaddset sigdelset
    sigprocmask signal waitpid getpid gettid dup dup2 pipe poll lseek
    record write_fd
""".split())

AS_UNSAFE_CALLS = {
    "malloc": "allocates on the heap the interrupted thread may hold",
    "calloc": "allocates on the heap the interrupted thread may hold",
    "realloc": "allocates on the heap the interrupted thread may hold",
    "free": "takes the heap lock the interrupted thread may hold",
    "printf": "stdio buffers are not async-signal-safe",
    "fprintf": "stdio buffers are not async-signal-safe",
    "snprintf": "not on the POSIX AS-safe list (may call malloc for %f)",
    "sprintf": "stdio formatting is not async-signal-safe",
    "puts": "stdio buffers are not async-signal-safe",
    "exit": "runs atexit handlers and flushes stdio; use _exit",
    "lock": "a mutex held by the interrupted thread deadlocks the handler",
    "unlock": "mutex operations are not async-signal-safe",
}

UNSAFE_TOKEN_RES = (
    (re.compile(r"(?<!\w)new\s+[\w:]"), "operator new allocates"),
    (re.compile(r"(?<!\w)throw\s"), "throw unwinds through foreign frames"),
    (re.compile(r"std::(cout|cerr|clog)\b"), "iostream locks and allocates"),
    (re.compile(r"std::string\b"), "std::string allocates"),
)


def find_handler_roots(files):
    roots = []
    for sf in files:
        for func in sf.functions:
            for regex in (HANDLER_ASSIGN_RE, SIGNAL_CALL_RE):
                for m in regex.finditer(func.body):
                    name = m.group(1).split("::")[-1]
                    if name not in ("SIG_IGN", "SIG_DFL"):
                        roots.append((name, sf,
                                      func.body_line +
                                      func.body.count("\n", 0, m.start())))
    return roots


def check_signal_safety(files, report):
    by_name: dict[str, list] = {}
    for sf in files:
        for func in sf.functions:
            by_name.setdefault(func.name, []).append((sf, func))

    roots = find_handler_roots(files)
    seen = set()
    queue = [name for name, _, _ in roots]
    while queue:
        name = queue.pop(0)
        if name in seen:
            continue
        seen.add(name)
        for sf, func in by_name.get(name, []):
            line_base = func.body_line
            for tok_re, why in UNSAFE_TOKEN_RES:
                m = tok_re.search(func.body)
                if m:
                    line = line_base + func.body.count("\n", 0, m.start())
                    report.add(
                        "signal-safety", sf, line,
                        f"'{func.qualified}' is reachable from a signal "
                        f"handler but {why}; only AS-safe operations may "
                        "run on this path")
            for callee, off in body_calls(func.body):
                simple = callee.split("::")[-1]
                line = line_base + func.body.count("\n", 0, off)
                if simple in AS_SAFE_CALLS:
                    continue
                if simple in AS_UNSAFE_CALLS:
                    report.add(
                        "signal-safety", sf, line,
                        f"'{callee}' called on the signal-handler path "
                        f"from '{func.qualified}': {AS_UNSAFE_CALLS[simple]}")
                elif simple in by_name:
                    queue.append(simple)
                else:
                    report.add(
                        "signal-safety", sf, line,
                        f"'{callee}' called on the signal-handler path "
                        f"from '{func.qualified}' is not on the AS-safe "
                        "allowlist; prove it safe and pin it, or move the "
                        "work out of the handler")


# --------------------------------------------------------------------------
# Rule: shard-purity
# --------------------------------------------------------------------------

ERRNO_LATCHING_RE = re.compile(
    r"(?<![\w:])(?:std::)?(strto(?:d|f|ld|l|ll|ul|ull|imax|umax)|strerror)"
    r"\s*\(")
ERRNO_RE = re.compile(r"(?<![\w.])errno\b")
RNG_IMPURE_RE = re.compile(
    r"(?<![\w:])(?:std::)?(rand|srand|drand48|lrand48|mrand48)\s*\(|"
    r"std::(random_device|mt19937(?:_64)?|minstd_rand0?|"
    r"default_random_engine)\b")

SHARD_BFS_DEPTH = 2


def shard_lambda_spans(sf):
    """(body_text, line) of each lambda passed to parallel_for/submit."""
    spans = []
    for func in sf.functions:
        body = func.body
        for m in re.finditer(r"\b(?:parallel_for|submit)\s*\(", body):
            lam = LAMBDA_START_RE.search(body, m.end())
            if not lam:
                continue
            open_at = body.index("{", lam.start())
            depth = 0
            end = open_at
            for j in range(open_at, len(body)):
                if body[j] == "{":
                    depth += 1
                elif body[j] == "}":
                    depth -= 1
                    if depth == 0:
                        end = j
                        break
            spans.append((body[open_at + 1:end],
                          func.body_line + body.count("\n", 0, open_at)))
    return spans


def check_shard_purity(files, report):
    by_name: dict[str, list] = {}
    for sf in files:
        for func in sf.functions:
            by_name.setdefault(func.name, []).append((sf, func))

    def scan_body(sf, body, line_base, context):
        for regex, what in (
                (ERRNO_RE, "reads/writes errno, which is latched "
                 "per-thread by unrelated libc calls"),
                (ERRNO_LATCHING_RE, "calls an errno-latching conversion; "
                 "use util's locale-free parsers outside the sharded loop"),
                (RNG_IMPURE_RE, "uses a non-util RNG; all randomness in a "
                 "sharded loop must come from a pre-derived ash::Rng "
                 "stream owned by the shard")):
            for m in regex.finditer(body):
                line = line_base + body.count("\n", 0, m.start())
                report.add(
                    "shard-purity", sf, line,
                    f"{context} {what} — sharded loops must be "
                    "bit-identical at any thread count")
        for m in STATIC_LOCAL_RE.finditer(body):
            line = line_base + body.count("\n", 0, m.start())
            report.add(
                "shard-purity", sf, line,
                f"{context} declares mutable static local "
                f"'{m.group(1)}': shared across shards, ordering is "
                "scheduler-dependent")
        for gname, _ in sf.globals.items():
            gre = re.compile(r"(?<![\w.])" + re.escape(gname) + r"\b")
            m = gre.search(body)
            if m:
                line = line_base + body.count("\n", 0, m.start())
                report.add(
                    "shard-purity", sf, line,
                    f"{context} touches file-scope mutable '{gname}': "
                    "shard bodies may only write state they own by index")

    def resolve(callee: str, rel: str) -> list:
        """Same-file definitions first; across files only when the simple
        name is project-unique (a name-based resolver cannot pick between
        the many `run`s and `evolve`s — a documented fallback limit)."""
        simple = callee.split("::")[-1]
        cands = by_name.get(simple, [])
        same_file = [c for c in cands if c[0].rel == rel]
        if same_file:
            return same_file
        if "::" in callee:
            qualified = [c for c in cands
                         if c[1].qualified.endswith(callee)]
            if qualified:
                return qualified
        return cands if len(cands) == 1 else []

    for sf in files:
        for body, line in shard_lambda_spans(sf):
            scan_body(sf, body, line, "sharded loop body")
            # Bounded BFS into the project functions the lambda calls.
            frontier = [(c, sf.rel) for c, _ in body_calls(body)]
            seen = set()
            for _ in range(SHARD_BFS_DEPTH):
                nxt = []
                for callee, rel in frontier:
                    simple = callee.split("::")[-1]
                    if simple in seen:
                        continue
                    seen.add(simple)
                    for csf, cfunc in resolve(callee, rel):
                        scan_body(csf, cfunc.body, cfunc.body_line,
                                  f"'{cfunc.qualified}' (reached from a "
                                  "sharded loop)")
                        nxt.extend((c, csf.rel)
                                   for c, _ in body_calls(cfunc.body))
                frontier = nxt


# --------------------------------------------------------------------------
# Rule: orphan-header
# --------------------------------------------------------------------------

PUBLIC_HEADER_PATH_RE = re.compile(r"^src/(\w+)/include/(ash/\1/(\w+)\.h)$")
INCLUDE_RE = re.compile(r'^[ \t]*(#)[ \t]*include[ \t]*[<"]([^">\n]+)[">]',
                        re.MULTILINE)
INCLUDER_DIRS = ("src", "tools", "bench", "perfbench")


def check_orphan_headers(files, report, root):
    headers = {}  # include path -> (SourceFile, its own .cpp)
    for sf in files:
        m = PUBLIC_HEADER_PATH_RE.match(sf.rel)
        if m:
            headers[m.group(2)] = (sf, f"src/{m.group(1)}/{m.group(3)}.cpp")
    includes = {}  # rel path -> what it #includes, commented-out ones aside
    dirs = [d for d in INCLUDER_DIRS if os.path.isdir(os.path.join(root, d))]
    for path, rel in iter_source_files(root, dirs if headers else []):
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
        code = strip_code(text)
        includes[rel.replace(os.sep, "/")] = {
            m.group(2) for m in INCLUDE_RE.finditer(text)
            if code[m.start(1)] == "#"}
    dead = set()  # orphan headers and their own .cpp files
    changed = True
    while changed:
        changed = False
        for inc, (sf, own_cpp) in headers.items():
            if sf.rel not in dead and not any(
                    inc in incs for rel, incs in includes.items()
                    if rel not in dead and rel not in (sf.rel, own_cpp)):
                dead.update((sf.rel, own_cpp))
                changed = True
                report.add(
                    "orphan-header", sf, 1,
                    f"nothing in {', '.join(INCLUDER_DIRS)} includes '{inc}' "
                    "(tests, examples, its own .cpp and other orphan "
                    "headers do not count): delete it or give it a caller")


# --------------------------------------------------------------------------
# Rule: unit-flow
# --------------------------------------------------------------------------

# `x_per_v`, `ramp_c_per_s`, `heat_capacity_j_per_k`... are *rates* —
# dimensionless in none of the five base units — not quantities carrying
# the suffix unit; forcing a strong type on them would mis-state their
# dimension.
RATE_NAME_RE = re.compile(r"_per_(?:s|v|k|c|hz)$")

UNIT_FLOW_PREFIX = "src/"
UNIT_FLOW_EXEMPT = ("src/util/include/ash/util/units.h",)


def rule_unit_flow(sf: SourceFile, report: Report) -> None:
    if not sf.rel.startswith(UNIT_FLOW_PREFIX) or sf.rel in UNIT_FLOW_EXEMPT:
        return
    for member in sf.members:
        if RATE_NAME_RE.search(member.name):
            continue
        want = UNIT_TYPE_FOR_SUFFIX[member.name.rsplit("_", 1)[1]]
        if member.kind == "double":
            fix = f"ash::{want}"
        else:
            fix = f"std::vector<ash::{want}>"
        report.add(
            "unit-flow", sf, member.line,
            f"public member '{member.owner}::{member.name}' is a raw "
            f"{member.kind}; use {fix} so the unit rides the type "
            "through serialization and call chains")
    for name, line in sf.return_decls:
        if RATE_NAME_RE.search(name):
            continue
        want = UNIT_TYPE_FOR_SUFFIX[name.rsplit("_", 1)[1]]
        report.add(
            "unit-flow", sf, line,
            f"'{name}' returns a raw double; return ash::{want} so "
            "callers cannot mistake the unit")


# --------------------------------------------------------------------------
# Rule: protocol-exhaustiveness
# --------------------------------------------------------------------------

PROTOCOL_HEADER = "src/fleet/include/ash/fleet/protocol.h"
PROTOCOL_IMPL = "src/fleet/protocol.cpp"
PROTOCOL_TESTS_DIR = "tests/fleet"

VIOLATION_SENTINELS = ("kNone", "kCount")


def check_protocol(files, report, root):
    header = impl = None
    for sf in files:
        if sf.rel == PROTOCOL_HEADER:
            header = sf
        elif sf.rel == PROTOCOL_IMPL:
            impl = sf
    if header is None or impl is None:
        return  # nothing to check in this tree (fixture roots)

    tests_text = ""
    tests_dir = os.path.join(root, PROTOCOL_TESTS_DIR)
    if os.path.isdir(tests_dir):
        for name in sorted(os.listdir(tests_dir)):
            if name.endswith(CXX_EXTENSIONS):
                with open(os.path.join(tests_dir, name), "r",
                          encoding="utf-8", errors="replace") as f:
                    tests_text += f.read()

    struct_names = {m.group(1) for m in re.finditer(
        r"\bstruct\s+(\w+)", header.decl_code)}
    impl_code = impl.decl_code

    for enum in header.enums:
        if enum.name == "MessageType":
            for name, line in enum.enumerators:
                struct = name[1:] if name.startswith("k") else name
                missing = []
                if struct not in struct_names:
                    missing.append("a payload codec struct in protocol.h")
                else:
                    if not re.search(r"\b%s::encode\b" % struct, impl_code):
                        missing.append(f"{struct}::encode in protocol.cpp")
                    if not re.search(r"\b%s::parse\b" % struct, impl_code):
                        missing.append(f"{struct}::parse in protocol.cpp")
                if f"MessageType::{name}" not in impl_code:
                    missing.append("a to_string classification in "
                                   "protocol.cpp")
                if name not in tests_text:
                    missing.append(f"a hostile-input test under "
                                   f"{PROTOCOL_TESTS_DIR}/ referencing it")
                if missing:
                    report.add(
                        "protocol-exhaustiveness", header, line,
                        f"MessageType::{name} lacks " + "; ".join(missing) +
                        " — every wire verb ships with its codec and its "
                        "hostile-input proof")
        elif enum.name == "ProtocolViolation":
            for name, line in enum.enumerators:
                if name in VIOLATION_SENTINELS:
                    continue
                missing = []
                if f"ProtocolViolation::{name}" not in impl_code:
                    missing.append("a classification site in protocol.cpp")
                if name not in tests_text:
                    missing.append(f"a hostile-input test under "
                                   f"{PROTOCOL_TESTS_DIR}/")
                if missing:
                    report.add(
                        "protocol-exhaustiveness", header, line,
                        f"ProtocolViolation::{name} lacks " +
                        "; ".join(missing))


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------

# One file at a time; the call-graph and cross-file rules run once over
# the whole file set in main().
FILE_RULES = {
    "wall-clock": rule_wall_clock,
    "rng": rule_rng,
    "unordered-iter": rule_unordered_iter,
    "float-physics": rule_float_physics,
    "raw-double-api": rule_raw_double_api,
    "unchecked-io": rule_unchecked_io,
    "eintr": rule_eintr,
    "metric-name": rule_metric_name,
    "lenient-parse": rule_lenient_parse,
    "unit-flow": rule_unit_flow,
}


def iter_source_files(root: str, paths):
    for base in paths:
        full = os.path.join(root, base)
        if os.path.isfile(full):
            yield full, os.path.relpath(full, root)
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            rel_dir = os.path.relpath(dirpath, root).replace(os.sep, "/")
            dirnames[:] = sorted(
                d for d in dirnames
                if not any(part in f"{rel_dir}/{d}" for part in EXCLUDED_PARTS))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    p = os.path.join(dirpath, name)
                    yield p, os.path.relpath(p, root)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ash_lint",
        description="determinism, units and semantic static analysis for "
        "the ash lab")
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories relative to --root "
                        f"(default: {' '.join(DEFAULT_PATHS)})")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as JSON on stdout")
    parser.add_argument("--rule", action="append", choices=RULES,
                        help="run only the named rule(s)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list rule names and exit")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json (default: "
                        "<root>/build/compile_commands.json when present); "
                        "warns about src/ translation units the build does "
                        "not compile")
    args = parser.parse_args(argv)

    if args.list_rules:
        for r in RULES:
            print(r)
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(root):
        print(f"ash_lint: --root {args.root} is not a directory",
              file=sys.stderr)
        return 2
    # A misspelled or renamed path must not silently shrink coverage.
    missing = [p for p in args.paths
               if not os.path.isfile(os.path.join(root, p))
               and not os.path.isdir(os.path.join(root, p))]
    if missing:
        for p in missing:
            print(f"ash_lint: path {p} is neither a file nor a directory",
                  file=sys.stderr)
        return 2

    cc_path = args.compile_commands
    if cc_path is None:
        default_cc = os.path.join(root, "build", "compile_commands.json")
        cc_path = default_cc if os.path.isfile(default_cc) else ""
    compile_commands = None
    if cc_path:
        try:
            with open(cc_path, "r", encoding="utf-8") as f:
                compile_commands = json.load(f)
        except (OSError, json.JSONDecodeError) as err:
            print(f"ash_lint: cannot read compile commands {cc_path}: "
                  f"{err}", file=sys.stderr)
            return 2

    known_tus = None
    if compile_commands is not None:
        known_tus = set()
        for entry in compile_commands:
            p = entry.get("file", "")
            if not os.path.isabs(p):
                p = os.path.join(entry.get("directory", ""), p)
            known_tus.add(os.path.realpath(p))

    rules = args.rule if args.rule else list(RULES)

    files = []
    try:
        for path, rel in iter_source_files(root, args.paths):
            # Headers are always parsed (compile_commands never lists
            # them); TUs are cross-checked against the build graph so a
            # file the build does not compile cannot silently pass.
            if known_tus is not None and path.endswith((".cpp", ".cc",
                                                        ".cxx")):
                if os.path.realpath(path) not in known_tus and \
                        rel.replace(os.sep, "/").startswith("src/"):
                    print(f"ash_lint: warning: {rel} not in compile "
                          "commands; analyzing anyway", file=sys.stderr)
            files.append(SourceFile(path, rel))
    except OSError as err:
        print(f"ash_lint: {err}", file=sys.stderr)
        return 2

    if not files:
        print("ash_lint: no source files matched", file=sys.stderr)
        return 2

    report = Report()
    for sf in files:
        for rule in rules:
            if rule in FILE_RULES:
                FILE_RULES[rule](sf, report)
    if "signal-safety" in rules:
        check_signal_safety(files, report)
    if "shard-purity" in rules:
        check_shard_purity(files, report)
    if "orphan-header" in rules:
        check_orphan_headers(files, report, root)
    if "protocol-exhaustiveness" in rules:
        check_protocol(files, report, root)

    findings = sorted(report.findings, key=lambda f: (f.path, f.line, f.rule))
    suppressed = len(report.suppressed)

    if args.json:
        counts: dict[str, int] = {}
        for f in findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        print(json.dumps({
            "findings": [asdict(f) for f in findings],
            "counts": counts,
            "files_scanned": len(files),
            "suppressed": suppressed,
        }, indent=2))
    else:
        for f in findings:
            print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
            if f.snippet:
                print(f"    {f.snippet}")
        tail = f"{len(files)} files scanned, {len(findings)} finding(s)"
        if suppressed:
            tail += f", {suppressed} suppressed"
        print(tail, file=sys.stderr)

    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
