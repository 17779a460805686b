#!/usr/bin/env python3
"""Repo-contract lint for ORTHRUS. Run from the repo root: python3 tools/lint.py

Enforces three contracts that neither the compiler nor clang-tidy checks:

1. raw-sync: no raw std::atomic / std::mutex / std::shared_mutex /
   std::condition_variable in src/ outside src/hal/. All cross-core shared
   state must go through hal::Atomic / hal::SpinLock so the simulator
   charges coherence for it and the race detector sees the happens-before
   edge. A raw std::atomic works natively and silently disappears from both
   models (this exact bug shipped once, in a lock-grant flag).
   Escape: `// lint:allow-raw-atomic <why>` on the offending line or the
   line above it.

2. hot-alloc: no allocation (new / malloc / calloc / realloc / free /
   make_unique / make_shared) in src/mp/, src/lock/, src/storage/, or
   src/engine/orthrus/. The paper's tuned lock manager "never interacts
   with a memory allocator" on the hot path; these directories ARE hot
   path — the ORTHRUS CC lock tables and the storage layer's row slabs
   and indexes must come from setup-time sizing — so every allocation must
   be an explicitly marked setup/cold-path site.
   Escape: `// lint:allow-alloc <why>` on the offending line or the line
   above it.

3. clock-read: no clock reading (hal::Now(), or any other Now() call) in
   src/engine/, src/runtime/ or src/lock/ except through SpanClock
   (common/stats.h). Every worker of every engine reads its clock only via
   its cursor's Mark, which charges the span since the previous reading,
   so every cycle is charged exactly once and a commit costs a known
   number of readings (4 per ORTHRUS exec-thread commit, 5 per 2PL,
   deadlock-free and partitioned-store commit, pinned on the sim by
   SimStats::clock_reads). A stray reading costs a virtual call and an
   rdtsc natively, and it opens an uncharged gap in the time breakdown.
   WorkerClock::Begin/Finish, the readings that bound a worker's run, are
   the only escapes.
   Escape: `// lint:allow-now <why>` on the offending line or the line
   above it.

Exit status 0 when clean, 1 with one `path:line: [rule] message` per
violation otherwise.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RAW_SYNC = re.compile(
    r"std::(atomic\b|atomic<|mutex\b|shared_mutex\b|condition_variable\b)"
)
ALLOC = re.compile(
    r"(\bnew\s+[A-Za-z_:<]|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|"
    r"\bfree\s*\(|\bmake_unique\b|\bmake_shared\b)"
)
CLOCK_READ = re.compile(r"\bNow\s*\(")


def strip_comments(text):
    """Blank out // and /* */ comment bodies, preserving line structure so
    reported line numbers stay correct. Lint escape markers are consumed by
    the caller before this runs."""
    out = []
    i, n = 0, len(text)
    in_block = False
    while i < n:
        if in_block:
            if text.startswith("*/", i):
                in_block = False
                i += 2
            else:
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
        elif text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
        elif text.startswith("/*", i):
            in_block = True
            i += 2
        elif text[i] in "\"'":
            quote = text[i]
            out.append(quote)
            i += 1
            while i < n and text[i] != quote:
                out.append(" ")
                i += 2 if text[i] == "\\" else 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def lint_file(path, rules):
    raw_lines = path.read_text().splitlines()
    code_lines = strip_comments("\n".join(raw_lines)).splitlines()
    violations = []
    for lineno, (raw, code) in enumerate(zip(raw_lines, code_lines), 1):
        # An escape marker covers its own line and the line below it.
        marked = raw + (raw_lines[lineno - 2] if lineno >= 2 else "")
        if "raw-sync" in rules and RAW_SYNC.search(code):
            if "lint:allow-raw-atomic" not in marked:
                violations.append(
                    (path, lineno, "raw-sync",
                     "raw std:: sync primitive outside src/hal/ — use "
                     "hal::Atomic / hal::SpinLock, or mark "
                     "`// lint:allow-raw-atomic <why>`"))
        if "hot-alloc" in rules and ALLOC.search(code):
            if "lint:allow-alloc" not in marked:
                violations.append(
                    (path, lineno, "hot-alloc",
                     "allocation in a hot-path directory — size it at "
                     "setup, or mark the setup site "
                     "`// lint:allow-alloc <why>`"))
        if "clock-read" in rules and CLOCK_READ.search(code):
            if "lint:allow-now" not in marked:
                violations.append(
                    (path, lineno, "clock-read",
                     "clock read outside SpanClock — use the thread's "
                     "cursor (SpanClock::Mark), or mark "
                     "`// lint:allow-now <why>`"))
    return violations


def main():
    violations = []
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(REPO).as_posix()
        rules = set()
        if not rel.startswith("src/hal/"):
            rules.add("raw-sync")
        if rel.startswith(
                ("src/mp/", "src/lock/", "src/storage/",
                 "src/engine/orthrus/")):
            rules.add("hot-alloc")
        if rel.startswith(("src/engine/", "src/runtime/", "src/lock/")):
            rules.add("clock-read")
        if rules:
            violations.extend(lint_file(path, rules))

    for path, lineno, rule, msg in violations:
        rel = path.relative_to(REPO).as_posix()
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if violations:
        print(f"\nlint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
