#!/usr/bin/env python3
"""SECRETA repo-convention linter.

Enforces the conventions the compilers cannot (or that only Clang can, which
the default GCC build would silently skip):

  naked-mutex       std::mutex / std::condition_variable / std::lock_guard /
                    std::unique_lock / std::scoped_lock may only be spelled
                    in src/common/mutex.h. Everything else goes through the
                    annotated Mutex/MutexLock/CondVar wrappers so the Clang
                    thread-safety gate covers it.
  no-throw          `throw` is banned in src/: core code propagates errors
                    through Status/Result<T> exclusively (see
                    src/common/status.h).
  naked-popcount    `__builtin_popcount*` may only be spelled in src/kernels/.
                    Everything else calls the dispatched kernels (AndPopcount,
                    PopcountRange, ...) from kernels/kernels.h so hot loops
                    pick up the SIMD tier and stay benchmarked in one place.
  metric-name       Metric family names passed to MetricsRegistry::counter /
                    gauge / histogram must be the named constants from
                    src/obs/metric_names.h, never string literals, so the
                    full metric surface stays greppable in one header and
                    dashboards cannot silently diverge from the code.
                    Applies to src/ only; tests and benches may mint
                    throwaway names.
  raw-io            mmap / munmap / madvise / fread may only be spelled in
                    src/data/ (the mmap_file.h / format.h layer). Everything
                    else reads datasets through ColumnProvider or
                    BinaryDatasetReader so file-format and lifetime
                    invariants (bounds checks, fingerprint verification,
                    unmap-on-drop) are enforced in one place. Applies to
                    src/, tests/ and bench/ alike.
  hash-copy         The 64-bit FNV prime (0x100000001b3) may only be
                    spelled in src/common/. Everything else hashes through
                    Fnv1a64 or IntVectorHash (common/string_util.h), so
                    there is one FNV-1a, and every map it keys iterates in
                    the order the pinned tests fix. Applies to src/, tests/,
                    bench/ and examples/ alike.
  include-style     Internal headers are included with "quotes", system and
                    third-party headers with <angle brackets>. A <...>
                    include that resolves to a repo header defeats header
                    hygiene and the self-include check.
  self-include-first  Every src/ .cc includes its own header first, proving
                    each header is self-contained.
  include-cycle     The src/ header include graph must stay a DAG. Layering
                    is otherwise only a convention: common/ at the bottom;
                    data/, hierarchy/, kernels/ above it; core/, algo/,
                    query/, engine/ above those; serve/, obs/, service/,
                    export/ at the rim. A cycle means two layers secretly
                    depend on each other and header hygiene (plus the
                    privacy layering in check_privacy_flow.py) can no
                    longer be reasoned about file-locally. Reported once
                    per cycle with the full path.
  oracle-boundary   Test oracles stay in tests and stay independent of what
                    they check. Nothing under src/ or examples/ includes a
                    tests/ header, and nothing under tests/oracle/ includes
                    query/query_evaluator.h, query/query_index.h or
                    core/recoding.h, directly or through any src/ header:
                    the ARE scan oracle must not share evaluation code with
                    the indexed path, nor the row-by-row dataset oracle the
                    id-based builder it checks.

Run from the repo root (or pass --root). Exits non-zero with one
"path:line: rule: message" diagnostic per violation. Suppress a single line
with a trailing `// lint:allow <rule>` comment and a reason.

This is wired into ctest as `lint.check_source` (label: lint) and into the
lint.yml CI workflow.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

MUTEX_TOKENS = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock)\b"
)
# `throw` as a statement; `throw()` exception-specs don't occur in this tree.
THROW_TOKEN = re.compile(r"(^|[^\w.])throw\s")
POPCOUNT_TOKEN = re.compile(r"__builtin_popcount(ll|l)?\b")
# Raw file I/O calls (not identifiers merely containing the words: the call
# paren is part of the token, and `MmapFile`/`mmap_file` don't match).
RAW_IO_TOKEN = re.compile(r"(^|[^\w.])(mmap|munmap|madvise|fread)\s*\(")
# A registry lookup whose family name is a string literal: `.counter("` /
# `->gauge("` / etc. Matched on the raw line (the comment stripper also
# blanks string literals, which would hide exactly what this rule needs).
METRIC_CALL = re.compile(r'[.>](counter|gauge|histogram)\s*\(\s*"')
# The FNV-1a 64 prime, in hex (any case, leading zeros, suffix) or decimal.
FNV_PRIME_TOKEN = re.compile(r"\b(0[xX]0*100000001[bB]3|1099511628211)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(<([^>]+)>|"([^"]+)")')
ALLOW_RE = re.compile(r"//\s*lint:allow\s+([\w-]+)")

# Directories holding internal headers reachable from the src/ include root.
INTERNAL_TOP_DIRS: set[str] = set()

# src/ headers the test oracles (tests/oracle/) must not reach.
ORACLE_FORBIDDEN = ("query/query_evaluator.h", "query/query_index.h",
                    "core/recoding.h", "core/guarantees.h", "core/audit.h",
                    "algo/transaction/violation_walk.h")
TESTS_INCLUDE = re.compile(r"^(\.\./)*tests/")


def strip_comments(line: str) -> str:
    """Removes // comments and a best-effort pass at string literals."""
    line = re.sub(r'"([^"\\]|\\.)*"', '""', line)
    return line.split("//", 1)[0]


def iter_source_lines(path: Path):
    text = path.read_text(encoding="utf-8", errors="replace")
    in_block_comment = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2:]
            in_block_comment = False
        # Strip /* ... */ spans (single-line and opening multi-line).
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2:]
        yield lineno, raw, line


def allowed(raw_line: str, rule: str) -> bool:
    m = ALLOW_RE.search(raw_line)
    return m is not None and m.group(1) == rule


def src_include_graph(root: Path) -> dict[str, list[str]]:
    """Maps each src/ header (relative to src/) to the src/ headers it
    includes."""
    src = root / "src"
    graph: dict[str, list[str]] = {}
    for path in sorted(src.rglob("*.h")):
        rel = path.relative_to(src).as_posix()
        targets = []
        for _, _, line in iter_source_lines(path):
            m = INCLUDE_RE.match(line)
            if m and m.group(3) and (src / m.group(3)).exists():
                targets.append(m.group(3))
        graph[rel] = targets
    return graph


def forbidden_chain(target: str, graph: dict[str, list[str]]):
    """The include chain from `target` to an ORACLE_FORBIDDEN header, or
    None when there is none."""
    parent: dict[str, str | None] = {target: None}
    queue = [target]
    while queue:
        node = queue.pop(0)
        if node in ORACLE_FORBIDDEN:
            chain = [node]
            while parent[chain[-1]] is not None:
                chain.append(parent[chain[-1]])
            return list(reversed(chain))
        for nxt in graph.get(node, []):
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    return None


def check_oracle_boundary(rel: str, includes, graph, errors: list[str]) -> None:
    for lineno, target, _ in includes:
        if (rel.startswith(("src/", "examples/"))
                and TESTS_INCLUDE.match(target)):
            errors.append(
                f'{rel}:{lineno}: oracle-boundary: "{target}" is a test '
                "header; src/ and examples/ never include tests/ (test "
                "oracles link into tests and benches only)"
            )
        if rel.startswith("tests/oracle/"):
            chain = forbidden_chain(target, graph)
            if chain is not None:
                errors.append(
                    f"{rel}:{lineno}: oracle-boundary: tests/oracle reaches "
                    f"{chain[-1]} ({' -> '.join(chain)}); an oracle must "
                    "not share code with the production path it checks"
                )


def check_file(path: Path, rel: str, errors: list[str],
               graph: dict[str, list[str]]) -> None:
    is_src = rel.startswith("src/")
    is_mutex_header = rel == "src/common/mutex.h"
    is_kernel_source = rel.startswith("src/kernels/")
    is_data_source = rel.startswith("src/data/")
    is_common_source = rel.startswith("src/common/")
    includes: list[tuple[int, str, bool]] = []  # (lineno, target, angled)

    for lineno, raw, line in iter_source_lines(path):
        # Includes are matched before string-literal stripping (the stripper
        # would turn "common/foo.h" into "").
        m = INCLUDE_RE.match(line)
        code = strip_comments(line)
        if not code.strip() and not m:
            continue

        if m:
            angled = m.group(2) is not None
            target = m.group(2) if angled else m.group(3)
            includes.append((lineno, target, angled))

        if is_src and not is_mutex_header and MUTEX_TOKENS.search(code):
            if not allowed(raw, "naked-mutex"):
                errors.append(
                    f"{rel}:{lineno}: naked-mutex: use secreta::Mutex / "
                    "MutexLock / CondVar from common/mutex.h so the "
                    "thread-safety analysis covers this lock"
                )

        if is_src and THROW_TOKEN.search(code):
            if not allowed(raw, "no-throw"):
                errors.append(
                    f"{rel}:{lineno}: no-throw: core code propagates errors "
                    "via Status/Result<T>, never exceptions"
                )

        if (is_src and rel != "src/obs/metric_names.h"
                and METRIC_CALL.search(line.split("//", 1)[0])):
            if not allowed(raw, "metric-name"):
                errors.append(
                    f"{rel}:{lineno}: metric-name: metric family names live "
                    "in src/obs/metric_names.h; pass the metric_names:: "
                    "constant instead of a string literal"
                )

        if not is_data_source and RAW_IO_TOKEN.search(code):
            if not allowed(raw, "raw-io"):
                errors.append(
                    f"{rel}:{lineno}: raw-io: raw mmap/fread belongs in "
                    "src/data/ only; read datasets through ColumnProvider "
                    "or BinaryDatasetReader (data/column_provider.h, "
                    "data/format.h)"
                )

        if is_src and not is_kernel_source and POPCOUNT_TOKEN.search(code):
            if not allowed(raw, "naked-popcount"):
                errors.append(
                    f"{rel}:{lineno}: naked-popcount: call the dispatched "
                    "kernels from kernels/kernels.h (AndPopcount, "
                    "PopcountRange, ...) instead of a raw "
                    "__builtin_popcount* loop"
                )

        if not is_common_source and FNV_PRIME_TOKEN.search(code):
            if not allowed(raw, "hash-copy"):
                errors.append(
                    f"{rel}:{lineno}: hash-copy: the FNV prime belongs in "
                    "src/common/ only; hash through Fnv1a64 or IntVectorHash "
                    "(common/string_util.h) instead of a local copy"
                )

    for lineno, target, angled in includes:
        top = target.split("/", 1)[0]
        is_internal = (
            top in INTERNAL_TOP_DIRS
            or target in ("secreta.h", "tests/test_util.h")
            or target.endswith("_test.h")
        )
        if angled and is_internal:
            errors.append(
                f"{rel}:{lineno}: include-style: internal header "
                f"<{target}> must be included with quotes"
            )
        elif not angled and not is_internal and "/" not in target:
            # A quoted include that is neither a known internal path nor a
            # relative repo path is probably a system header in disguise.
            errors.append(
                f'{rel}:{lineno}: include-style: "{target}" does not name '
                "a repo header; system headers use <angle brackets>"
            )

    check_oracle_boundary(rel, includes, graph, errors)

    if is_src and rel.endswith(".cc") and includes:
        own_header = rel[len("src/"):-len(".cc")] + ".h"
        if (Path(path).parent / (path.stem + ".h")).exists():
            first = includes[0]
            if first[1] != own_header:
                errors.append(
                    f"{rel}:{first[0]}: self-include-first: first include "
                    f'must be "{own_header}" (got "{first[1]}") so the '
                    "header proves self-contained"
                )


def check_include_cycles(graph: dict[str, list[str]],
                         errors: list[str]) -> None:
    """Reports cycles in the src/ header include graph (must stay a DAG)."""

    # Iterative DFS with an explicit color map; each cycle reported once.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    reported: set[frozenset[str]] = set()

    def visit(start: str) -> None:
        stack: list[tuple[str, int]] = [(start, 0)]
        path_stack = [start]
        color[start] = GRAY
        while stack:
            node, idx = stack[-1]
            targets = graph.get(node, [])
            if idx < len(targets):
                stack[-1] = (node, idx + 1)
                nxt = targets[idx]
                state = color.get(nxt, BLACK)
                if state == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
                    path_stack.append(nxt)
                elif state == GRAY:
                    cycle = path_stack[path_stack.index(nxt):] + [nxt]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        errors.append(
                            f"src/{cycle[0]}:1: include-cycle: "
                            + " -> ".join(cycle))
            else:
                color[node] = BLACK
                stack.pop()
                path_stack.pop()

    for node in graph:
        if color[node] == WHITE:
            visit(node)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument(
        "files", nargs="*",
        help="specific files to check (default: all of src/, tests/, bench/, "
             "examples/)")
    args = parser.parse_args()
    root = Path(args.root).resolve()

    src = root / "src"
    if not src.is_dir():
        print(f"error: {src} is not a directory (wrong --root?)",
              file=sys.stderr)
        return 2
    for child in sorted(src.iterdir()):
        if child.is_dir():
            INTERNAL_TOP_DIRS.add(child.name)

    if args.files:
        paths = [Path(f).resolve() for f in args.files]
    else:
        paths = []
        for sub in ("src", "tests", "bench", "examples"):
            paths.extend(sorted((root / sub).rglob("*.cc")))
            paths.extend(sorted((root / sub).rglob("*.h")))

    errors: list[str] = []
    graph = src_include_graph(root)
    if not args.files:
        check_include_cycles(graph, errors)
    checked = 0
    for path in paths:
        if path.suffix not in (".cc", ".h"):
            continue
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        check_file(path, rel, errors, graph)
        checked += 1

    for err in errors:
        print(err)
    print(f"check_source: {checked} files, {len(errors)} violation(s)",
          file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
