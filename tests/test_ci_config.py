"""The CI workflow must say what it means: no duplicate mapping keys.

YAML loaders keep the *last* of two equal keys in one mapping without a
word, so a job with two ``steps:`` lists silently runs only the second.
This check is stdlib-only (no YAML parser needed): it tracks block
mappings by indentation, skips block scalars (``run: |``), and reports
any key that appears twice in the same mapping.
"""

from __future__ import annotations

import pathlib
import re

CI = pathlib.Path(__file__).resolve().parent.parent / ".github" / \
    "workflows" / "ci.yml"

_KEY = re.compile(
    r"^(?P<indent> *)(?P<dash>- +)?(?P<key>[A-Za-z0-9_.-]+|\"[^\"]*\"|"
    r"'[^']*'):(?:\s+(?P<value>.*))?$"
)
_BLOCK_SCALAR = re.compile(r"^[|>][-+0-9]*\s*(#.*)?$")


def duplicate_keys(text: str) -> list[tuple[int, str]]:
    """``(line number, key)`` for every repeated key in a block mapping."""
    dups: list[tuple[int, str]] = []
    # open mappings, innermost last: (column, keys seen)
    stack: list[tuple[int, set[str]]] = [(-1, set())]
    scalar_col: int | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.rstrip()
        stripped = line.lstrip()
        indent = len(line) - len(stripped)
        if scalar_col is not None:
            if not stripped or indent > scalar_col:
                continue  # inside a block scalar
            scalar_col = None
        if not stripped or stripped.startswith("#"):
            continue
        m = _KEY.match(line)
        if m is None:
            continue
        col = indent + len(m.group("dash") or "")
        if m.group("dash"):
            # a list item opens a fresh mapping at its content column
            while stack[-1][0] >= col:
                stack.pop()
            stack.append((col, set()))
        while stack[-1][0] > col:
            stack.pop()
        if stack[-1][0] < col:
            stack.append((col, set()))
        key = m.group("key").strip("\"'")
        if key in stack[-1][1]:
            dups.append((lineno, key))
        stack[-1][1].add(key)
        if _BLOCK_SCALAR.match(m.group("value") or ""):
            scalar_col = col
    return dups


def _jobs(text: str) -> list[str]:
    """Top-level job names under ``jobs:`` (two-space indented keys)."""
    body = text.split("\njobs:\n", 1)[1]
    return re.findall(r"^  ([A-Za-z0-9_-]+):\s*$", body, flags=re.M)


def test_checker_finds_a_repeated_steps_key():
    sample = (
        "jobs:\n"
        "  fuzz:\n"
        "    runs-on: ubuntu-latest\n"
        "    steps:\n"
        "      - name: a\n"
        "        run: |\n"
        "          steps: not a key, a script line\n"
        "      - name: b\n"
        "    steps:\n"
        "      - name: c\n"
    )
    assert duplicate_keys(sample) == [(9, "steps")]


def test_checker_allows_equal_keys_in_sibling_mappings():
    sample = (
        "jobs:\n"
        "  a:\n"
        "    steps:\n"
        "      - name: x\n"
        "        env:\n"
        "          K: '1'\n"
        "      - name: y\n"
        "        env:\n"
        "          K: '2'\n"
        "  b:\n"
        "    steps: []\n"
    )
    assert duplicate_keys(sample) == []


def test_ci_workflow_has_no_duplicate_keys():
    assert duplicate_keys(CI.read_text()) == []


def test_ci_runs_fuzz_and_scale_jobs():
    text = CI.read_text()
    jobs = _jobs(text)
    assert len(jobs) == len(set(jobs)), jobs
    assert {"fuzz", "scale", "chaos"} <= set(jobs)
