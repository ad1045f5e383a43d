"""Doc-drift gate: documentation must track the code it describes.

Three families of checks, all driven by introspection so they cannot
themselves drift:

* every relative markdown link in the docs set resolves to a real file;
* every ``repro`` / ``python -m repro`` command line in a fenced bash
  block names a real subcommand, real flags on that subcommand, and
  real engine/problem names where ``--engine`` / ``--problem`` appear;
* every ```python fenced block in docs/*.md actually executes (skip a
  block by preceding its fence with ``<!-- notest -->``);
* every inline-code span that starts with a CamelCase identifier names
  a class or function defined under ``src/repro``, a Python builtin, or
  an entry of a short allowlist of outside names.

Coverage is also asserted positively: each docs page is in the scanned
set, and every canonical engine and problem name is mentioned
somewhere in the documentation.
"""

from __future__ import annotations

import ast
import builtins
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.problems import PROBLEMS
from repro.runtime.registry import ENGINE_SPECS

ROOT = Path(__file__).resolve().parent.parent

DOCS_PAGES = [
    "docs/api.md",
    "docs/cost_model.md",
    "docs/paper_mapping.md",
    "docs/reproduction_guide.md",
    "docs/serving.md",
    "docs/operations.md",
]
DOC_SET = ["README.md", "DESIGN.md", "EXPERIMENTS.md", *DOCS_PAGES]


def _read(rel):
    return (ROOT / rel).read_text(encoding="utf-8")


def test_docs_pages_all_exist():
    # The scanned set is the contract: a page added to docs/ without
    # being listed here is invisible to the drift gate.
    on_disk = sorted(p.name for p in (ROOT / "docs").glob("*.md"))
    listed = sorted(Path(p).name for p in DOCS_PAGES)
    assert on_disk == listed


# ---------------------------------------------------------------------------
# Link resolution
# ---------------------------------------------------------------------------

_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")


def _fenced_spans(text):
    spans = []
    start = None
    for m in re.finditer(r"^```.*$", text, re.M):
        if start is None:
            start = m.start()
        else:
            spans.append((start, m.end()))
            start = None
    return spans


def _outside_fences(text):
    """Text with fenced code blocks blanked out (offsets preserved)."""
    chars = list(text)
    for a, b in _fenced_spans(text):
        for i in range(a, b):
            if chars[i] != "\n":
                chars[i] = " "
    return "".join(chars)


@pytest.mark.parametrize("page", DOC_SET)
def test_relative_links_resolve(page):
    text = _outside_fences(_read(page))
    base = (ROOT / page).parent
    broken = []
    for target in _LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        if not (base / path).exists():
            broken.append(target)
    assert not broken, f"{page}: broken relative links {broken}"


# ---------------------------------------------------------------------------
# CLI command lines in bash blocks
# ---------------------------------------------------------------------------


def _bash_blocks(text):
    for m in re.finditer(r"^```(?:bash|sh|console)\n(.*?)^```", text, re.M | re.S):
        yield m.group(1)


def _command_lines(block):
    """Join backslash continuations, yield repro invocations as argv."""
    logical, pending = [], ""
    for raw in block.splitlines():
        line = pending + raw
        if line.rstrip().endswith("\\"):
            pending = line.rstrip()[:-1] + " "
            continue
        pending = ""
        logical.append(line)
    for line in logical:
        line = line.strip()
        if line.startswith("$ "):
            line = line[2:]
        m = re.match(r"^(?:[A-Z_]+=\S+\s+)*(?:python -m repro|repro)\s+(.*)$", line)
        if not m:
            continue
        try:
            yield shlex.split(m.group(1), comments=True)
        except ValueError:
            yield m.group(1).split()


def _subcommands():
    parser = build_parser()
    return parser._subparsers._group_actions[0].choices


def _option_strings(subparser):
    return {opt for a in subparser._actions for opt in a.option_strings}


def _nested_choices(subparser):
    for a in subparser._actions:
        if isinstance(getattr(a, "choices", None), dict):
            return a.choices
    return {}


def _flag_choices(subparser, flag):
    for a in subparser._actions:
        if flag in a.option_strings and a.choices is not None:
            return set(a.choices)
    return None


@pytest.mark.parametrize("page", DOC_SET)
def test_cli_lines_match_parser(page):
    subs = _subcommands()
    problems = []
    for block in _bash_blocks(_read(page)):
        for argv in _command_lines(block):
            if not argv:
                continue
            name = argv[0]
            if name not in subs:
                problems.append(f"unknown subcommand {name!r} in: {argv}")
                continue
            sp = subs[name]
            rest = argv[1:]
            nested = _nested_choices(sp)
            if nested and rest and rest[0] in nested:
                sp = nested[rest[0]]
                rest = rest[1:]
            opts = _option_strings(sp)
            for i, tok in enumerate(rest):
                if not tok.startswith("--"):
                    continue
                flag = tok.split("=", 1)[0]
                if flag not in opts:
                    problems.append(f"{name}: unknown flag {flag!r} in: {argv}")
                    continue
                value = (
                    tok.split("=", 1)[1]
                    if "=" in tok
                    else (rest[i + 1] if i + 1 < len(rest) else None)
                )
                allowed = _flag_choices(sp, flag)
                if allowed and value is not None and value not in allowed:
                    problems.append(
                        f"{name}: {flag} value {value!r} not in {sorted(allowed)}"
                    )
    assert not problems, f"{page}:\n" + "\n".join(problems)


def test_readme_cli_enumeration_is_current():
    # "instances|heuristics|solve|..." one-liners must only name real
    # subcommands (the trailing "..." wildcard is allowed).
    subs = set(_subcommands())
    for page in ("README.md", "docs/api.md"):
        for m in re.finditer(r"python -m repro ([\w|]+\|[\w|.]+)", _read(page)):
            names = [n for n in m.group(1).split("|") if n and n != "..."]
            unknown = [n for n in names if n not in subs]
            assert not unknown, f"{page}: unknown subcommands {unknown}"


# ---------------------------------------------------------------------------
# Engine / problem name coverage
# ---------------------------------------------------------------------------


def test_every_engine_documented():
    corpus = "\n".join(_read(p) for p in DOC_SET)
    missing = [e for e in ENGINE_SPECS if f"`{e}`" not in corpus and e not in corpus]
    assert not missing, f"engines absent from all docs: {missing}"


def test_every_problem_documented():
    corpus = "\n".join(_read(p) for p in DOC_SET)
    missing = [p for p in PROBLEMS if p not in corpus]
    assert not missing, f"problems absent from all docs: {missing}"


# ---------------------------------------------------------------------------
# Executable python blocks
# ---------------------------------------------------------------------------


def _python_blocks(page):
    text = _read(page)
    out = []
    for m in re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S):
        prefix = text[: m.start()].rstrip().rsplit("\n", 1)[-1]
        if "<!-- notest -->" in prefix:
            continue
        out.append((text[: m.start()].count("\n") + 2, m.group(1)))
    return out


ALL_PY_BLOCKS = [
    pytest.param(page, line, src, id=f"{Path(page).name}:{line}")
    for page in DOC_SET
    for line, src in _python_blocks(page)
]


@pytest.mark.parametrize("page, line, src", ALL_PY_BLOCKS)
def test_python_block_executes(page, line, src, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = compile(src, f"{page}:{line}", "exec")
    exec(code, {"__name__": "__docs__"})


def test_examples_importable():
    # examples/ rides the same gate: every example must at least parse.
    examples = sorted((ROOT / "examples").glob("*.py"))
    assert examples
    for path in examples:
        compile(path.read_text(encoding="utf-8"), str(path), "exec")


# ---------------------------------------------------------------------------
# CamelCase names in inline code
# ---------------------------------------------------------------------------

#: CamelCase names the docs cite from outside ``src/repro``.
_OUTSIDE_NAMES = {
    "Process",  # multiprocessing.Process
    "RawArray",  # multiprocessing.RawArray
    "SimpleQueue",  # multiprocessing.SimpleQueue
    "TimeoutStopSec",  # systemd unit setting
}

#: an inline-code span that starts with a CamelCase identifier, e.g.
#: `Schedule`, `Schedule.apply_delta`, `StopCondition(...)`.
_LEADING_CAMEL = re.compile(r"([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?=$|[.(\[])")


def _defined_names():
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(node.name)
    return names


def test_camelcase_code_names_exist():
    known = _defined_names() | _OUTSIDE_NAMES
    stale = []
    for page in DOC_SET:
        for span in re.findall(r"`([^`]+)`", _outside_fences(_read(page))):
            m = _LEADING_CAMEL.match(span.strip())
            if m and m.group(1) not in known and not hasattr(builtins, m.group(1)):
                stale.append(f"{page}: `{span.strip()}`")
    assert not stale, "docs name code that does not exist:\n" + "\n".join(stale)
