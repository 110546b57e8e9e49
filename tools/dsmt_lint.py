#!/usr/bin/env python3
"""Physics-aware lint gate for the dsmt library sources.

Rules (library code under src/ only — tests/bench/examples are exempt):

  R1 unit-tag     Exported function declarations in headers must not take
                  raw `double` parameters unless the parameter is documented
                  with a `[unit]` tag (e.g. [1], [K], [s], [m], [W/(m*K)])
                  in a doc comment within the preceding lines, or on the
                  same line. Strong types from core/units.h need no tag.
  R2 no-stdio     Library code must not write to std::cout / std::cerr or
                  call printf: the library computes, callers report.
  R3 constants    Physical-constant literals (273.15, Boltzmann, elementary
                  charge, vacuum permittivity, ...) may appear only in
                  core/units.h — everywhere else use the named constant.
  R4 pragma-once  Every header must start its preprocessor life with
                  `#pragma once`.
  R5 converged-check  `.converged` may be written anywhere but read only
                  inside the status layer (core/status, numeric/roots,
                  numeric/sparse, numeric/fault_injection): call sites must
                  go through .ok() / the SolverDiag chain so failures carry
                  their StatusCode instead of collapsing to a bare bool.
  R6 no-raw-thread  `std::thread` / `std::jthread` / `std::async` may appear
                  only under src/parallel/ — everywhere else must go through
                  parallel::parallel_for / parallel_map so the determinism
                  contract (static partitioning, ordered reduction, first-
                  error propagation) cannot be bypassed.
  R7 wall-clock   Wall-clock reads (`std::chrono::system_clock`, `time()`,
                  `std::time()`) are banned from src/: deadlines and
                  timeouts must use std::chrono::steady_clock via
                  core::RunContext, so an NTP step can neither expire nor
                  extend a run budget. Method calls like `res.time()` are
                  not wall-clock reads and do not fire.
  R8 service-io   src/service/ is the hardened request path: file I/O
                  (fstream, fopen, FILE*, freopen, std::getline) and
                  unbounded node-based queues (std::deque, std::queue,
                  std::list) are banned there. The service reads requests
                  its caller already parsed and holds bursts in
                  fixed-capacity index-addressed vectors; a file handle or
                  a growable queue on that path is exactly how overload
                  stops being explicit shedding and becomes OOM.
  R9 lock-vocabulary  The annotated concurrent subsystems (src/parallel/,
                  src/service/, core/signoff, core/run_context,
                  numeric/fault_injection) must use the
                  capability-annotated dsmt::Mutex / dsmt::MutexLock /
                  dsmt::CondVar from core/thread_annotations.h. Raw
                  std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable there silently opt shared state
                  out of Clang's -Wthread-safety analysis.
                  core/thread_annotations.h itself is the one sanctioned
                  home of the raw types (it wraps them).
  R10 guarded-state  (heuristic) In the same subsystems, a mutable global
                  (g_-prefixed, by repo convention) or a primitive/container
                  class member (trailing-underscore name) must be
                  std::atomic, DSMT_GUARDED_BY-annotated, const/constexpr,
                  thread_local, a capability type (Mutex/CondVar), or carry
                  an explicit `R10-ok:` justification comment on or just
                  above its declaration. Worker threads reach all of these
                  subsystems; unprotected mutable state there is a data
                  race waiting for a scheduler seed.
  R11 net-syscalls  src/net/ is the sole home of raw socket/fd syscalls
                  (read/write/recv/send/accept/poll/socket/bind/...):
                  everywhere else in src/ must go through the net::
                  wrappers, so the EINTR/EAGAIN/SIGPIPE disciplines cannot
                  be bypassed. Inside src/net/, every interruptible data
                  syscall site must visibly handle EINTR (the token must
                  appear within 8 lines of the call). Member calls
                  (`decoder_.next(...)`, `ctx.poll()`) and nullary accessor
                  declarations (`StatusCode poll() const`) do not fire.
                  tests/, tools/, and examples/ are exempt, like all rules.
  R12 hot-path-solver  The many-instance hot paths (selfconsistent/sweep.cpp,
                  core/variation.cpp, src/service/) must solve Eq. 13
                  through the batch API (solve_batch / solve_one,
                  selfconsistent/batch.h): a raw scalar
                  `selfconsistent::solve(` or `numeric::brent_robust(` call
                  there quietly reverts the path to one-Brent-per-lane and
                  falls off the committed BENCH_* perf trajectory.
                  selfconsistent/solver.cpp is the exempt home — it IS the
                  scalar chain the batch API transcribes. Look-alikes
                  (`solve_one(`, `solve_batch(`, `resolve(`, member
                  `.solve(`) do not fire.
  R14 cache-primitives  The FNV-1a constants (offset bases and prime,
                  decimal or hex) may be spelled only in cache/fnv.h —
                  everywhere else calls cache::fnv1a, so a typo'd prime
                  cannot silently fork the hash that the solve cache's
                  resident-entry checksums, its shard routing, and the
                  supervise quarantine keys agree on. Nothing hashed is
                  kept on disk; one hash keeps a cache's verify agreeing
                  with its publish and the printed quarantine hashes stable
                  across builds. tests/, tools/, and examples/ are exempt,
                  like all rules.
  R13 process-syscalls  src/supervise/ is the sole home of child-process
                  management syscalls (fork/vfork/exec*/waitpid/wait4/
                  socketpair/setrlimit/kill/_exit): everywhere else in src/
                  must go through supervise::WorkerPool, so crash
                  containment — reap-and-classify, restart backoff, poison
                  quarantine — cannot be re-implemented ad hoc around it.
                  Member calls (`worker.kill(`), suffixed identifiers
                  (`forked(`, `task_kill(`), and nullary unqualified
                  declarations do not fire. tests/, tools/, and examples/
                  are exempt, like all rules.

Exit status 0 when clean, 1 when any violation is found.

Usage: dsmt_lint.py [--root DIR] [--self-test]
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Files that define the constants / unit vocabulary and are allowed to spell
# the raw literals.
CONSTANT_HOMES = {"core/units.h", "core/units.cpp", "numeric/constants.h"}

# Physical constants that must be referenced by name, with enough context to
# not fire on arbitrary numerics (regexes anchored on the literal).
PHYSICAL_CONSTANTS = [
    (re.compile(r"\b273\.15\b"), "celsius offset (use kCelsiusOffset)"),
    (re.compile(r"\b373\.15\b"), "reference temperature (use kTrefK)"),
    (re.compile(r"\b1\.380649e-23\b"), "Boltzmann constant (use kBoltzmannJ)"),
    (re.compile(r"\b8\.617333262(?:e-5|e-05)\b"),
     "Boltzmann constant in eV (use kBoltzmannEv)"),
    (re.compile(r"\b1\.602176634e-19\b"),
     "elementary charge (use kElementaryCharge)"),
    (re.compile(r"\b8\.8541878128e-12\b"),
     "vacuum permittivity (use kEpsilon0)"),
]

STDIO_RE = re.compile(r"std::cout\b|std::cerr\b|(?<![\w:])printf\s*\(")

# Files that implement the failure-status layer and are allowed to read the
# raw `.converged` flag; everyone else must use .ok() / SolverDiag.
CONVERGED_HOMES = {
    "core/status.h", "core/status.cpp",
    "numeric/fault_injection.h", "numeric/fault_injection.cpp",
    "numeric/roots.cpp", "numeric/sparse.cpp",
}

# A `.converged` occurrence that is not a plain assignment (writes stay
# legal everywhere: kernels populate the flag, they just may not branch
# on it outside the status layer).
CONVERGED_READ_RE = re.compile(r"\.converged\b(?!\s*=(?!=))")

# The only directory allowed to create threads; everyone else uses the
# deterministic fan-out layer it exports.
THREAD_HOME_PREFIX = "parallel/"

RAW_THREAD_RE = re.compile(r"std::(?:jthread|thread|async)\b")

# Wall-clock reads. The bare `time(` alternative must not match member or
# suffixed calls (`res.time()`, `->time()`, `crossing_time(`), hence the
# lookbehind, and must not match nullary accessor declarations (`time()
# const`), hence the required argument — C's time() always takes one.
# `std::time(` needs its own alternative because the lookbehind would
# otherwise reject the qualifying `::`.
WALL_CLOCK_RE = re.compile(
    r"std::chrono::system_clock\b|std::time\s*\(|"
    r"(?<![\w.:>])time\s*\(\s*[^)\s]")

# The hardened request path: no file I/O, no unbounded queue containers.
SERVICE_PREFIX = "service/"

# File-I/O vocabulary. `FILE` needs the word boundary so `ProFILE` stays
# legal; std::getline is the istream reader, never needed on the service
# path (requests arrive as parsed Json).
SERVICE_FILE_IO_RE = re.compile(
    r"std::(?:[io]?fstream|getline)\b|(?<![\w:])(?:fopen|freopen)\s*\(|"
    r"(?<![\w:])FILE\s*\*")

# Node-based growable containers whose per-element allocation makes queue
# growth invisible until the allocator fails: bursts must live in
# fixed-capacity vectors sized by admission control.
SERVICE_UNBOUNDED_RE = re.compile(r"std::(?:deque|queue|list)\s*<")

# The annotated concurrent subsystems: every file here is expected to use
# the capability-annotated lock vocabulary (R9) and to protect its mutable
# state visibly (R10). core/thread_annotations.h is the single sanctioned
# home of the raw std types — it is what wraps them.
CONCURRENCY_FENCE_PREFIXES = ("parallel/", "service/", "net/", "supervise/",
                              "cache/")
CONCURRENCY_FENCE_FILES = {
    "core/signoff.cpp",
    "core/run_context.h", "core/run_context.cpp",
    "numeric/fault_injection.h", "numeric/fault_injection.cpp",
}
THREAD_ANNOTATIONS_HOME = "core/thread_annotations.h"

RAW_LOCK_RE = re.compile(
    r"std::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable(?:_any)?)\b")

# R10 heuristic vocabulary. Primitive and standard-container types whose
# mutation from two threads is a data race; internally synchronized class
# types (SolveCache, WorkerPool, ...) and smart-pointer handles are
# deliberately not matched — their pointees are judged at their own
# declarations.
R10_TYPES = (
    r"(?:bool|char|short|int|long|unsigned|float|double|size_t|"
    r"std::size_t|std::u?int\d+_t|std::string|std::vector|std::deque|"
    r"std::map|std::unordered_map|std::set|std::unordered_set|std::list|"
    r"std::function|std::optional|std::exception_ptr)")
# Class member: primitive/container type followed (possibly via template
# args) by a trailing-underscore name.
R10_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?" + R10_TYPES +
    r"(?:<[^;]*?>)?[\s*&]+(\w+_)\b")
# Namespace-scope mutable global: any type token followed by a g_ name
# (repo convention). The keyword guard keeps `delete g_pool;` and
# `return g_x;` statements from matching.
R10_GLOBAL_RE = re.compile(
    r"^\s*(?!delete\b|return\b|new\b|throw\b|case\b)"
    r"(?:static\s+)?[\w:]+(?:<[^;]*?>)?[\s*&]+(g_\w+)\b")
# Markers that satisfy R10 when present on the declaration's line span (the
# line, a continuation through ';', or up to two preceding comment lines).
R10_MARKER_RE = re.compile(
    r"std::atomic|DSMT_GUARDED_BY|DSMT_PT_GUARDED_BY|\bconst\b|"
    r"\bconstexpr\b|\bthread_local\b|\bMutex\b|\bCondVar\b|R10-ok:")

# The one directory allowed to make raw socket/fd syscalls (R11); its
# wrappers (net/socket_io.h) enforce the EINTR/EAGAIN/SIGPIPE disciplines.
NET_PREFIX = "net/"
# Files with a sanctioned, self-contained fd discipline of their own that
# R11's outside-net ban does not apply to: the durable-write helper retries
# EINTR at every write and must not route file I/O through socket wrappers.
R11_EXEMPT_FILES = ("core/atomic_file.cpp",)


def _syscall_re(names: str) -> re.Pattern:
    """Raw syscall call sites: either explicitly global-qualified
    (`::read(...)`) or unqualified with at least one argument — the
    argument requirement keeps nullary accessor declarations
    (`StatusCode poll() const`) quiet, and the lookbehind keeps member
    calls (`decoder_.next(`), suffixed names (`read_some(`), and
    std-qualified names (`std::bind(`) quiet."""
    return re.compile(
        r"(?<![\w:])::(?:" + names + r")\s*\(|"
        r"(?<![\w.:>])(?:" + names + r")\s*\(\s*[^)\s]")


# Interruptible data-path syscalls: these can fail EINTR mid-stream, so
# every call site in src/net/ must visibly handle it.
SYSCALL_DATA_NAMES = (
    r"pread|read|pwrite|write|recvfrom|recvmsg|recv|sendto|sendmsg|send|"
    r"accept4|accept|ppoll|poll|connect|close")
# Setup-path syscalls: banned outside src/net/ with the rest, but no EINTR
# discipline demanded at the site (bind/listen/socket do not EINTR).
SYSCALL_SETUP_NAMES = (
    r"socket|bind|listen|setsockopt|getsockname|shutdown|pipe2|pipe")

SYSCALL_ANY_RE = _syscall_re(SYSCALL_DATA_NAMES + r"|" + SYSCALL_SETUP_NAMES)
SYSCALL_DATA_RE = _syscall_re(SYSCALL_DATA_NAMES)
# EINTR handling must be visible within this many lines of the call site.
EINTR_SPAN = 8
EINTR_RE = re.compile(r"\bEINTR\b")

# The many-instance Eq.-13 hot paths (R12): every solver entry there must be
# solve_batch / solve_one so the SoA batch core (and its bench trajectory)
# cannot be silently bypassed. selfconsistent/solver.cpp is the exempt home
# of the scalar chain itself.
R12_HOT_PATH_PREFIXES = ("service/",)
R12_HOT_PATH_FILES = {
    "selfconsistent/sweep.cpp",
    "core/variation.cpp",
}
R12_SOLVER_HOME = "selfconsistent/solver.cpp"

# A raw scalar solver call: `solve(...)` (optionally selfconsistent::
# qualified) or `brent_robust(...)` (optionally numeric:: qualified). The
# lookbehind keeps member calls (`.solve(`), suffixed/prefixed identifiers
# (`resolve(`), and the sanctioned batch entries (`solve_one(`,
# `solve_batch(` — different identifiers entirely) from matching.
R12_SCALAR_SOLVE_RE = re.compile(
    r"(?<![\w.:>])(?:selfconsistent::)?solve\s*\(|"
    r"(?<![\w.:>])(?:numeric::)?brent_robust\s*\(")


def in_r12_hot_path(rel: str) -> bool:
    return rel.startswith(R12_HOT_PATH_PREFIXES) or rel in R12_HOT_PATH_FILES


# The one directory allowed to manage child processes (R13): the supervised
# worker pool owns fork / exec / reap / kill / rlimit rails, so crash
# containment (death classification, seeded restart backoff, poison
# quarantine) lives in exactly one place.
SUPERVISE_PREFIX = "supervise/"
PROCESS_SYSCALL_NAMES = (
    r"vfork|fork|execvpe?|execve?|execl[ep]?|waitpid|waitid|wait4|"
    r"socketpair|setrlimit|kill|_exit")
PROCESS_SYSCALL_RE = _syscall_re(PROCESS_SYSCALL_NAMES)


# The one header allowed to spell the FNV-1a constants (R14): every
# checksum and content hash in the tree calls cache::fnv1a, so resident
# cache checksums, shard routing, and quarantine keys agree on one hash and
# a typo'd prime cannot silently fork it. 1469598103934665603 is the frozen
# historical canonical-request basis (the supervise hash) — changing or
# re-deriving it would change every quarantine hash that replies and the
# sign-off report print.
FNV_HOME = "cache/fnv.h"
FNV_LITERAL_RE = re.compile(
    r"\b(?:14695981039346656037|1469598103934665603|1099511628211)"
    r"[uUlL]*\b|"
    r"0[xX](?:cbf29ce484222325|100000001b3)[uUlL]*\b",
    re.IGNORECASE)


# A doc line counts as carrying a unit tag when it contains [...] with a
# plausible unit expression: [1], [K], [s], [A/m^2], [W/(m*K)], [K*m/W], ...
UNIT_TAG_RE = re.compile(r"\[[\w\s./*^()%-]+\]")

# Parameter declared as raw double (not double* / double& / std::function /
# vector<double> — those are data containers, not single physical values).
RAW_DOUBLE_PARAM_RE = re.compile(r"(?<![\w<])double\s+(\w+)\s*[,)=]")


def strip_comments(line: str) -> str:
    return re.sub(r"//.*$", "", line)


def find_decl_params(text: str):
    """Yield (line_no, param_name, context_lines) for raw-double params of
    function declarations at namespace/class scope in a header."""
    lines = text.split("\n")
    depth = 0
    for i, raw in enumerate(lines):
        line = strip_comments(raw)
        # Only consider declaration-ish lines outside function bodies: we
        # track brace depth but allow depth 1-2 (namespace + class).
        open_b = line.count("{")
        close_b = line.count("}")
        if depth <= 3 and "(" in line and "double" in line:
            # Skip control flow and macro lines.
            stripped = line.strip()
            if not stripped.startswith(("if", "for", "while", "switch", "#",
                                        "return", "throw")):
                for m in RAW_DOUBLE_PARAM_RE.finditer(line):
                    context = lines[max(0, i - 6):i + 1]
                    yield i + 1, m.group(1), context
        depth += open_b - close_b


def has_unit_tag(context_lines) -> bool:
    for line in context_lines:
        if ("//" in line or "/*" in line or "*" in line.strip()[:1]) and \
                UNIT_TAG_RE.search(line):
            return True
    # Same-line trailing comment also counts.
    last = context_lines[-1]
    return "//" in last and UNIT_TAG_RE.search(last.split("//", 1)[1]) is not None


def in_concurrency_fence(rel: str) -> bool:
    return (rel.startswith(CONCURRENCY_FENCE_PREFIXES) or
            rel in CONCURRENCY_FENCE_FILES)


def r10_span_has_marker(lines, i: int) -> bool:
    """True when the declaration starting at raw line i carries an R10
    marker on its line span (through the terminating ';', max 3 lines) or in
    the contiguous comment block immediately above it."""
    span = []
    for j in range(i, min(i + 3, len(lines))):
        span.append(lines[j])
        if ";" in lines[j]:
            break
    for j in range(i - 1, max(i - 6, -1), -1):
        s = lines[j].strip()
        if s.startswith("//") or s.startswith("*") or s.startswith("/*"):
            span.append(lines[j])
        else:
            break
    return any(R10_MARKER_RE.search(line) for line in span)


def lint_file(path: pathlib.Path, rel: str, errors: list):
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")

    is_header = rel.endswith(".h")

    # R4: #pragma once must be the first preprocessor directive.
    if is_header:
        for line in lines:
            s = line.strip()
            if not s or s.startswith("//"):
                continue
            if s != "#pragma once":
                errors.append(f"{rel}:1: [pragma-once] header does not start "
                              f"with '#pragma once'")
            break

    # R2: no stdio in library code.
    for i, raw in enumerate(lines):
        line = strip_comments(raw)
        m = STDIO_RE.search(line)
        if m:
            errors.append(f"{rel}:{i + 1}: [no-stdio] library code writes to "
                          f"stdio ('{m.group(0).strip()}') — return data, "
                          f"let callers report")

    # R3: physical-constant literals only in their home files.
    if rel not in CONSTANT_HOMES:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            for pat, what in PHYSICAL_CONSTANTS:
                if pat.search(line):
                    errors.append(f"{rel}:{i + 1}: [constants] literal "
                                  f"{what}")

    # R5: `.converged` reads only inside the status layer.
    if rel not in CONVERGED_HOMES:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            if CONVERGED_READ_RE.search(line):
                errors.append(f"{rel}:{i + 1}: [converged-check] raw "
                              f"'.converged' read outside the status layer — "
                              f"use .ok() or the SolverDiag chain")

    # R6: raw threading primitives only under src/parallel/.
    if not rel.startswith(THREAD_HOME_PREFIX):
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = RAW_THREAD_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [no-raw-thread] raw "
                              f"'{m.group(0)}' outside src/parallel/ — use "
                              f"parallel::parallel_for / parallel_map to keep "
                              f"results thread-count invariant")

    # R7: no wall-clock reads in library code — monotonic budgets only.
    for i, raw in enumerate(lines):
        line = strip_comments(raw)
        m = WALL_CLOCK_RE.search(line)
        if m:
            errors.append(f"{rel}:{i + 1}: [wall-clock] wall-clock read "
                          f"('{m.group(0).strip()}') — deadlines must use "
                          f"std::chrono::steady_clock (core::RunContext)")

    # R8: src/service/ is the hardened path — no file I/O, no unbounded
    # queues. The batch front end (examples/dsmt_serve.cpp) owns the file
    # handles; admission control owns the memory bound.
    if rel.startswith(SERVICE_PREFIX):
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = SERVICE_FILE_IO_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [service-io] file I/O "
                              f"('{m.group(0).strip()}') on the hardened "
                              f"service path — parse input at the edge "
                              f"(examples/dsmt_serve.cpp), pass Json in")
            m = SERVICE_UNBOUNDED_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [service-io] unbounded queue "
                              f"container ('{m.group(0).strip()}') on the "
                              f"service path — hold bursts in fixed-capacity "
                              f"vectors sized by admission control")

    # R9 + R10: the annotated concurrent subsystems. R9 fences the raw std
    # lock vocabulary out (it is invisible to -Wthread-safety); R10 demands
    # that mutable globals / primitive members there be visibly protected.
    if in_concurrency_fence(rel) and rel != THREAD_ANNOTATIONS_HOME:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = RAW_LOCK_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [lock-vocabulary] raw "
                              f"'{m.group(0)}' in an annotated subsystem — "
                              f"use dsmt::Mutex / dsmt::MutexLock / "
                              f"dsmt::CondVar (core/thread_annotations.h) so "
                              f"Clang's -Wthread-safety sees the acquisition")
            decl = R10_MEMBER_RE.match(line) or R10_GLOBAL_RE.match(line)
            if decl and not r10_span_has_marker(lines, i):
                errors.append(f"{rel}:{i + 1}: [guarded-state] mutable state "
                              f"'{decl.group(1)}' in an annotated subsystem "
                              f"is neither std::atomic nor DSMT_GUARDED_BY — "
                              f"annotate it, make it atomic, or justify with "
                              f"an 'R10-ok:' comment above the declaration")

    # R11: raw socket/fd syscalls live in src/net/ only; inside src/net/,
    # every interruptible data syscall visibly handles EINTR nearby.
    if not rel.startswith(NET_PREFIX):
        if rel not in R11_EXEMPT_FILES:
            for i, raw in enumerate(lines):
                line = strip_comments(raw)
                m = SYSCALL_ANY_RE.search(line)
                if m:
                    errors.append(f"{rel}:{i + 1}: [net-syscalls] raw fd "
                                  f"syscall ('{m.group(0).strip()}') outside "
                                  f"src/net/ — go through the net::socket_io "
                                  f"wrappers so the EINTR/EAGAIN/SIGPIPE "
                                  f"disciplines hold")
    else:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = SYSCALL_DATA_RE.search(line)
            if not m:
                continue
            lo = max(0, i - EINTR_SPAN)
            hi = min(len(lines), i + EINTR_SPAN + 1)
            if not any(EINTR_RE.search(lines[j]) for j in range(lo, hi)):
                errors.append(f"{rel}:{i + 1}: [net-syscalls] interruptible "
                              f"syscall ('{m.group(0).strip()}') with no "
                              f"visible EINTR handling within {EINTR_SPAN} "
                              f"lines — retry the call (or document why the "
                              f"interrupt cannot occur) at the site")

    # R12: the many-instance hot paths solve Eq. 13 through the batch API
    # only; the scalar chain lives in selfconsistent/solver.cpp.
    if in_r12_hot_path(rel) and rel != R12_SOLVER_HOME:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = R12_SCALAR_SOLVE_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [hot-path-solver] raw scalar "
                              f"solver call ('{m.group(0).strip()}') on a "
                              f"many-instance hot path — go through "
                              f"selfconsistent::solve_batch / solve_one "
                              f"(selfconsistent/batch.h) so the SoA batch "
                              f"core cannot be bypassed")

    # R13: child-process management syscalls live in src/supervise/ only —
    # the worker pool is the single owner of fork/reap/kill/rlimit, so
    # crash containment cannot be re-implemented ad hoc around it.
    if not rel.startswith(SUPERVISE_PREFIX):
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = PROCESS_SYSCALL_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [process-syscalls] raw "
                              f"process syscall ('{m.group(0).strip()}') "
                              f"outside src/supervise/ — child processes are "
                              f"owned by supervise::WorkerPool (fork, reap, "
                              f"kill, rlimit rails) so crash containment "
                              f"stays in one place")

    # R14: the FNV-1a constants may be spelled only in cache/fnv.h;
    # everyone else calls cache::fnv1a.
    if rel != FNV_HOME:
        for i, raw in enumerate(lines):
            line = strip_comments(raw)
            m = FNV_LITERAL_RE.search(line)
            if m:
                errors.append(f"{rel}:{i + 1}: [cache-primitives] FNV-1a "
                              f"constant '{m.group(0).strip()}' spelled "
                              f"outside cache/fnv.h — call cache::fnv1a so "
                              f"cache checksums, shard routing, and "
                              f"quarantine keys stay on one hash")

    # R1: raw double params in exported header decls need a [unit] doc tag.
    # core/units.h is the unit vocabulary itself: its factory helpers and
    # scalar operators are exactly the sanctioned raw-double boundary.
    if is_header and rel not in CONSTANT_HOMES:
        for line_no, name, context in find_decl_params(text):
            if not has_unit_tag(context):
                errors.append(
                    f"{rel}:{line_no}: [unit-tag] raw double parameter "
                    f"'{name}' lacks a [unit] doc tag — use a strong type "
                    f"from core/units.h or document the unit")


def run(root: pathlib.Path) -> int:
    src = root / "src"
    # A missing tree must not read as "clean": a typo'd --root in CI would
    # otherwise pass the gate vacuously.
    if not src.is_dir():
        print(f"dsmt_lint: error: no src/ directory under {root}",
              file=sys.stderr)
        return 2
    errors: list[str] = []
    for path in sorted(src.rglob("*.h")) + sorted(src.rglob("*.cpp")):
        rel = path.relative_to(src).as_posix()
        lint_file(path, rel, errors)
    for e in errors:
        print(e)
    if errors:
        print(f"\ndsmt_lint: {len(errors)} violation(s)")
        return 1
    print("dsmt_lint: clean")
    return 0


SELF_TEST_BAD_HEADER = """\
#include <cmath>
#pragma once

namespace dsmt {

/// Converts a temperature with no unit documentation anywhere.
double shady_convert(double temperature);

inline double to_kelvin(double t_c) { return t_c + 273.15; }

inline void report(double x) { std::cout << x; }  // [1]

inline bool is_done(const Result& r) { return r.converged; }

inline void race() { std::thread([] {}).join(); }

inline long stamp() { return time(nullptr); }  // [s]

}  // namespace dsmt
"""

SELF_TEST_GOOD_HEADER = """\
// A well-behaved header.
#pragma once

namespace dsmt {

/// Scales a ratio [1] by gain [1].
double scale(double ratio, double gain);

/// Writing the flag is legal everywhere — only reads are fenced in.
inline void mark(Result& r) { r.converged = true; }

/// Member and suffixed calls are not wall-clock reads; steady_clock is the
/// sanctioned clock.
inline double last(const Series& s) { return s.time(); }
inline double tick() { return crossing_time(1.0); }

}  // namespace dsmt
"""


SELF_TEST_BAD_SERVICE = """\
// Everything R8 bans, in one service file.
#pragma once

#include <deque>
#include <fstream>
#include <queue>

namespace dsmt::service {

inline void spool(const Request& r) {
  std::ofstream out("spool.json");          // file I/O on the hot path
  FILE* raw = nullptr;
  raw = fopen("spool.bin", "wb");
  std::string line;
  std::getline(std::cin, line);
}

inline void buffer(const Request& r) {
  static std::deque<Request> backlog;       // grows until the allocator fails
  static std::queue<Request> pending;
  static std::list<Request> retired;
}

}  // namespace dsmt::service
"""

SELF_TEST_GOOD_SERVICE = """\
// The sanctioned shapes: bounded vectors, profiles, no file handles.
#pragma once

#include <map>
#include <vector>

namespace dsmt::service {

/// Index-addressed burst storage sized by admission control [1].
inline std::vector<Response> hold(std::size_t capacity) {
  std::vector<Response> out;
  out.reserve(capacity);
  return out;
}

/// `ProFILE *` must not trip the FILE* pattern, nor queue_capacity the
/// container one.
inline void shapes(const ProFILE* profile, std::size_t queue_capacity) {}

}  // namespace dsmt::service
"""


SELF_TEST_BAD_CONCURRENCY = """\
// Everything R9/R10 bans, in one fenced file: raw lock vocabulary plus
// unguarded mutable state.
#pragma once

#include <mutex>
#include <vector>

namespace dsmt::parallel {

class Worklist {
 public:
  void push(int v) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(v);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<int> pending_;
  bool draining_ = false;
};

int g_epoch = 0;

}  // namespace dsmt::parallel
"""

SELF_TEST_GOOD_CONCURRENCY = """\
// The sanctioned shapes: annotated vocabulary, visibly protected state.
#pragma once

namespace dsmt::service {

class Tally {
 public:
  void bump() {
    MutexLock lock(mu_);
    ++count_;
  }

 private:
  mutable Mutex mu_;
  std::uint64_t count_ DSMT_GUARDED_BY(mu_) = 0;
  std::atomic<int> fast{0};
  // The marker may sit on a continuation line of the declaration...
  std::map<std::string, int> lookup_
      DSMT_GUARDED_BY(mu_);
  // R10-ok: seeded once in the constructor before the object is shared
  // with workers; never written again.
  std::size_t capacity_ = 0;
  static constexpr int kBurst = 8;
};

}  // namespace dsmt::service
"""

SELF_TEST_BAD_SYSCALL = """\
// Raw fd syscalls in three shapes R11 must catch when the file is outside
// src/net/ — and flag for missing interrupt-retry handling when inside.
#pragma once

namespace dsmt::demo {

inline long pull(int fd, char* buf, unsigned long n) {
  return ::read(fd, buf, n);
}

inline long push(int fd, const char* buf, unsigned long n) {
  return send(fd, buf, n, 0);
}

inline int wait_ready(void* fds, int n, int timeout_ms) {
  return poll(fds, n, timeout_ms);
}

}  // namespace dsmt::demo
"""

SELF_TEST_GOOD_NET = """\
// The sanctioned src/net/ shapes: every interruptible syscall handles
// EINTR visibly, and look-alikes (member calls, nullary accessor
// declarations, suffixed wrapper names) must not fire at all.
#pragma once

namespace dsmt::net {

inline long pull(int fd, char* buf, unsigned long n) {
  for (;;) {
    const long got = ::recv(fd, buf, n, 0);
    if (got >= 0) return got;
    if (errno == EINTR) continue;  // interrupted before any byte: retry
    return -1;
  }
}

class Probe {
 public:
  int poll() const;           // nullary accessor declaration, not poll(2)
  long drain(Decoder& d) {
    return d.read(16);        // member call, not read(2)
  }
  long fill(int fd, char* buf, unsigned long n) {
    return read_some(fd, buf, n);  // suffixed wrapper name, not read(2)
  }
};

}  // namespace dsmt::net
"""

SELF_TEST_BAD_HOTPATH = """\
// Raw scalar solver entries in the three shapes R12 must catch when the
// file sits on a many-instance hot path.
#include "selfconsistent/batch.h"

namespace dsmt::selfconsistent {

void drive(const Problem& p, std::vector<Problem>& ps) {
  auto a = solve(p);                                // bare scalar call
  auto b = selfconsistent::solve(p);                // qualified scalar call
  auto r = numeric::brent_robust([](double t) { return t; }, 0.0, 1.0);
}

}  // namespace dsmt::selfconsistent
"""

SELF_TEST_GOOD_HOTPATH = """\
// The sanctioned hot-path shapes: the batch API, plus every look-alike
// identifier R12 must stay quiet on.
#include "selfconsistent/batch.h"

namespace dsmt::selfconsistent {

void drive(const Problem& p, std::vector<Problem>& ps) {
  auto one = solve_one(p);             // 1-lane adapter: sanctioned
  BatchProblem bp;
  for (const Problem& q : ps) bp.push_back(q);
  auto bs = solve_batch(bp);           // batch entry: sanctioned
  auto x = resolve(p);                 // suffix look-alike, not solve()
  auto y = engine.solve(p);            // member call, not the scalar chain
}

}  // namespace dsmt::selfconsistent
"""

SELF_TEST_BAD_PROCESS = """\
// Raw process-management syscalls in the four shapes R13 must catch when
// the file sits outside src/supervise/.
#pragma once

namespace dsmt::demo {

inline int spawn() {
  return ::fork();
}

inline void reap(int pid) {
  int status = 0;
  waitpid(pid, &status, 0);
  kill(pid, 9);
}

inline bool rail(unsigned long bytes) {
  return setrlimit(9, nullptr) == 0;
}

}  // namespace dsmt::demo
"""

SELF_TEST_GOOD_PROCESS = """\
// Look-alikes R13 must stay quiet on: member calls, suffixed identifiers,
// nullary unqualified declarations, and names embedded in longer words.
#pragma once

namespace dsmt::demo {

class Task {
 public:
  int fork() const;                 // nullary declaration, not fork(2)
  void stop(Worker& worker) {
    worker.kill(SIGTERM);           // member call, not kill(2)
  }
  void purge(const char* name) {
    killall(name);                  // longer identifier, not kill(2)
    task_kill(7);                   // prefixed identifier, not kill(2)
  }
  bool forked(int pid) {            // suffixed identifier, not fork(2)
    return pid > 0;
  }
};

}  // namespace dsmt::demo
"""

SELF_TEST_BAD_CACHE = """\
// FNV-1a constants in the shapes R14 must catch when the file is not
// cache/fnv.h.
#pragma once

#include <cstdint>
#include <string>

namespace dsmt::demo {

inline std::uint64_t my_hash(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  h ^= 1469598103934665603ULL;
  return h ^ 0xcbf29ce484222325ULL;
}

}  // namespace dsmt::demo
"""

SELF_TEST_GOOD_CACHE = """\
// Look-alikes R14 must stay quiet on: the sanctioned cache::fnv1a call
// and nearby-but-different numerics.
#pragma once

#include <cstdint>
#include <string>

namespace dsmt::demo {

inline std::uint64_t content_key(const std::string& s) {
  return cache::fnv1a(s);                       // the sanctioned entry point
}

inline std::uint64_t near_misses() {
  const std::uint64_t a = 1099511627776ull;     // 2^40, not the FNV prime
  const std::uint64_t b = 14695981039346656036ull;  // basis off by one
  return a ^ b;
}

}  // namespace dsmt::demo
"""

SELF_TEST_WRAPPER_HOME = """\
// Minimal slice of core/thread_annotations.h: the one sanctioned home of
// the raw std lock types, which it wraps in annotated capabilities.
#pragma once

#include <condition_variable>
#include <mutex>

namespace dsmt {

class Mutex {
 private:
  std::mutex mu_;
};

class CondVar {
 private:
  std::condition_variable cv_;
};

}  // namespace dsmt
"""


def self_test() -> int:
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        root = pathlib.Path(d)
        (root / "src" / "demo").mkdir(parents=True)
        (root / "src" / "service").mkdir(parents=True)
        bad = root / "src" / "demo" / "bad.h"
        bad.write_text(SELF_TEST_BAD_HEADER)
        good = root / "src" / "demo" / "good.h"
        good.write_text(SELF_TEST_GOOD_HEADER)
        bad_svc = root / "src" / "service" / "bad_service.h"
        bad_svc.write_text(SELF_TEST_BAD_SERVICE)
        good_svc = root / "src" / "service" / "good_service.h"
        good_svc.write_text(SELF_TEST_GOOD_SERVICE)
        (root / "src" / "parallel").mkdir(parents=True)
        (root / "src" / "core").mkdir(parents=True)
        bad_conc = root / "src" / "parallel" / "bad_conc.h"
        bad_conc.write_text(SELF_TEST_BAD_CONCURRENCY)
        good_conc = root / "src" / "service" / "good_conc.h"
        good_conc.write_text(SELF_TEST_GOOD_CONCURRENCY)
        wrapper = root / "src" / "core" / "thread_annotations.h"
        wrapper.write_text(SELF_TEST_WRAPPER_HOME)
        (root / "src" / "net").mkdir(parents=True)
        bad_sys = root / "src" / "demo" / "bad_io.h"
        bad_sys.write_text(SELF_TEST_BAD_SYSCALL)
        good_net = root / "src" / "net" / "good_io.h"
        good_net.write_text(SELF_TEST_GOOD_NET)
        (root / "src" / "selfconsistent").mkdir(parents=True)
        bad_hot = root / "src" / "selfconsistent" / "sweep.cpp"
        bad_hot.write_text(SELF_TEST_BAD_HOTPATH)
        good_hot = root / "src" / "service" / "good_hot.cpp"
        good_hot.write_text(SELF_TEST_GOOD_HOTPATH)
        bad_proc = root / "src" / "demo" / "bad_proc.h"
        bad_proc.write_text(SELF_TEST_BAD_PROCESS)
        good_proc = root / "src" / "demo" / "good_proc.h"
        good_proc.write_text(SELF_TEST_GOOD_PROCESS)
        bad_cache = root / "src" / "demo" / "bad_cache.h"
        bad_cache.write_text(SELF_TEST_BAD_CACHE)
        good_cache = root / "src" / "demo" / "good_cache.h"
        good_cache.write_text(SELF_TEST_GOOD_CACHE)

        errors: list[str] = []
        lint_file(bad, "demo/bad.h", errors)
        tags = sorted({re.search(r"\[([\w-]+)\]", e).group(1) for e in errors})
        expect = ["constants", "converged-check", "no-raw-thread", "no-stdio",
                  "pragma-once", "unit-tag", "wall-clock"]
        if tags != expect:
            print(f"self-test FAILED: bad.h raised {tags}, expected {expect}")
            for e in errors:
                print("  " + e)
            return 1

        errors = []
        lint_file(good, "demo/good.h", errors)
        if errors:
            print("self-test FAILED: good.h should be clean:")
            for e in errors:
                print("  " + e)
            return 1

        # R8 fires on every banned shape in a service file...
        errors = []
        lint_file(bad_svc, "service/bad_service.h", errors)
        svc = [e for e in errors if "[service-io]" in e]
        if len(svc) != 7:  # ofstream, fopen, FILE*, getline, deque/queue/list
            print(f"self-test FAILED: bad_service.h raised {len(svc)} "
                  f"service-io violations, expected 7:")
            for e in errors:
                print("  " + e)
            return 1

        # ... stays quiet on the sanctioned shapes ...
        errors = []
        lint_file(good_svc, "service/good_service.h", errors)
        if errors:
            print("self-test FAILED: good_service.h should be clean:")
            for e in errors:
                print("  " + e)
            return 1

        # ... and is scoped to src/service/: the same banned shapes outside
        # the fence raise no service-io violation.
        errors = []
        lint_file(bad_svc, "demo/bad_service.h", errors)
        if any("[service-io]" in e for e in errors):
            print("self-test FAILED: service-io fired outside src/service/")
            return 1

        # R9/R10 fire on every banned shape inside the concurrency fence...
        errors = []
        lint_file(bad_conc, "parallel/bad_conc.h", errors)
        r9 = [e for e in errors if "[lock-vocabulary]" in e]
        r10 = [e for e in errors if "[guarded-state]" in e]
        if len(r9) != 3 or len(r10) != 3:
            print(f"self-test FAILED: bad_conc.h raised {len(r9)} "
                  f"lock-vocabulary + {len(r10)} guarded-state violations, "
                  f"expected 3 + 3:")
            for e in errors:
                print("  " + e)
            return 1

        # ... stay quiet on the annotated shapes (guard on line, guard on a
        # continuation line, atomic, R10-ok comment, constexpr) ...
        errors = []
        lint_file(good_conc, "service/good_conc.h", errors)
        if errors:
            print("self-test FAILED: good_conc.h should be clean:")
            for e in errors:
                print("  " + e)
            return 1

        # ... are scoped to the fence: the same shapes in an unfenced
        # subsystem raise nothing ...
        errors = []
        lint_file(bad_conc, "demo/bad_conc.h", errors)
        if any("[lock-vocabulary]" in e or "[guarded-state]" in e
               for e in errors):
            print("self-test FAILED: R9/R10 fired outside the fence")
            return 1

        # ... and exempt core/thread_annotations.h, the wrapper home of the
        # raw types.
        errors = []
        lint_file(wrapper, "core/thread_annotations.h", errors)
        if errors:
            print("self-test FAILED: thread_annotations.h home should be "
                  "exempt:")
            for e in errors:
                print("  " + e)
            return 1

        # R11 fires on every raw syscall shape outside src/net/ ...
        errors = []
        lint_file(bad_sys, "demo/bad_io.h", errors)
        sys_errs = [e for e in errors if "[net-syscalls]" in e]
        if len(sys_errs) != 3:  # ::read, send, poll
            print(f"self-test FAILED: bad_io.h outside net/ raised "
                  f"{len(sys_errs)} net-syscalls violations, expected 3:")
            for e in errors:
                print("  " + e)
            return 1

        # ... demands visible EINTR handling at the same sites inside
        # src/net/ ...
        errors = []
        lint_file(bad_sys, "net/bad_io.h", errors)
        sys_errs = [e for e in errors if "[net-syscalls]" in e]
        if len(sys_errs) != 3 or any("EINTR" not in e for e in sys_errs):
            print(f"self-test FAILED: bad_io.h inside net/ raised "
                  f"{len(sys_errs)} EINTR-discipline violations, expected 3:")
            for e in errors:
                print("  " + e)
            return 1

        # ... and stays quiet on the sanctioned net/ shapes: EINTR-handled
        # syscalls, member calls, nullary accessor declarations, suffixed
        # wrapper names.
        errors = []
        lint_file(good_net, "net/good_io.h", errors)
        if errors:
            print("self-test FAILED: good_io.h should be clean:")
            for e in errors:
                print("  " + e)
            return 1

        # R12 fires on every raw scalar solver shape on a hot path ...
        errors = []
        lint_file(bad_hot, "selfconsistent/sweep.cpp", errors)
        hot = [e for e in errors if "[hot-path-solver]" in e]
        if len(hot) != 3:  # solve, selfconsistent::solve, brent_robust
            print(f"self-test FAILED: hot-path sweep.cpp raised {len(hot)} "
                  f"hot-path-solver violations, expected 3:")
            for e in errors:
                print("  " + e)
            return 1

        # ... stays quiet on the batch API and the look-alike identifiers ...
        errors = []
        lint_file(good_hot, "service/good_hot.cpp", errors)
        if any("[hot-path-solver]" in e for e in errors):
            print("self-test FAILED: good_hot.cpp should be R12-clean:")
            for e in errors:
                print("  " + e)
            return 1

        # ... is scoped to the hot paths: the same scalar calls in an
        # unfenced subsystem raise nothing ...
        errors = []
        lint_file(bad_hot, "demo/free_solver.cpp", errors)
        if any("[hot-path-solver]" in e for e in errors):
            print("self-test FAILED: R12 fired outside the hot paths")
            return 1

        # ... and exempts selfconsistent/solver.cpp, the home of the scalar
        # chain itself (hypothetically hot-pathed here to prove the carve-out
        # beats the fence).
        errors = []
        lint_file(bad_hot, "selfconsistent/solver.cpp", errors)
        if any("[hot-path-solver]" in e for e in errors):
            print("self-test FAILED: R12 fired on the solver.cpp exempt home")
            return 1

        # R13 fires on every raw process-syscall shape outside
        # src/supervise/ ...
        errors = []
        lint_file(bad_proc, "demo/bad_proc.h", errors)
        proc = [e for e in errors if "[process-syscalls]" in e]
        if len(proc) != 4:  # ::fork, waitpid, kill, setrlimit
            print(f"self-test FAILED: bad_proc.h raised {len(proc)} "
                  f"process-syscalls violations, expected 4:")
            for e in errors:
                print("  " + e)
            return 1

        # ... stays quiet on the look-alike identifiers ...
        errors = []
        lint_file(good_proc, "demo/good_proc.h", errors)
        if any("[process-syscalls]" in e for e in errors):
            print("self-test FAILED: good_proc.h should be R13-clean:")
            for e in errors:
                print("  " + e)
            return 1

        # ... and exempts src/supervise/, the fence's home: the same shapes
        # there raise nothing.
        errors = []
        lint_file(bad_proc, "supervise/bad_proc.h", errors)
        if any("[process-syscalls]" in e for e in errors):
            print("self-test FAILED: R13 fired inside src/supervise/")
            return 1

        # R14 fires on every FNV literal (decimal, hex, the frozen canonical
        # basis) outside cache/fnv.h ...
        errors = []
        lint_file(bad_cache, "demo/bad_cache.h", errors)
        cache_errs = [e for e in errors if "[cache-primitives]" in e]
        if len(cache_errs) != 4:  # 4 FNV literals
            print(f"self-test FAILED: bad_cache.h raised {len(cache_errs)} "
                  f"cache-primitives violations, expected 4:")
            for e in errors:
                print("  " + e)
            return 1

        # ... stays quiet on the sanctioned call and the look-alikes ...
        errors = []
        lint_file(good_cache, "demo/good_cache.h", errors)
        if any("[cache-primitives]" in e for e in errors):
            print("self-test FAILED: good_cache.h should be R14-clean:")
            for e in errors:
                print("  " + e)
            return 1

        # ... and exempts cache/fnv.h, the constants' home.
        errors = []
        lint_file(bad_cache, "cache/fnv.h", errors)
        if any("[cache-primitives]" in e for e in errors):
            print("self-test FAILED: R14 fired inside cache/fnv.h")
            return 1

    print("dsmt_lint: self-test passed (rules R1-R14)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".",
                    help="repository root (contains src/)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in rule self-test and exit")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    return run(pathlib.Path(args.root).resolve())


if __name__ == "__main__":
    sys.exit(main())
