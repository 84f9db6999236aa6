"""Docs hygiene: intra-repo links resolve, documented CLI flags exist.

The CI docs job runs ``tools/check_links.py`` directly; these tests keep
the same guarantees inside the tier-1 suite, plus one the script cannot
give: every ``python -m repro ...`` invocation shown in a fenced code
block uses a real subcommand with real flags (checked against
``repro.__main__.build_parser``, the single source of truth).
"""

import argparse
import importlib.util
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]


def _load_check_links():
    spec = importlib.util.spec_from_file_location(
        "check_links", REPO / "tools" / "check_links.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_docs_exist():
    expected = {"index.md", "architecture.md", "api.md",
                "observability.md", "reproducing.md"}
    assert expected <= {p.name for p in (REPO / "docs").glob("*.md")}


@pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
def test_intra_repo_links_resolve(path):
    problems = _load_check_links().check_file(path)
    assert problems == []


# ----------------------------------------------------------------------
# CLI flags mentioned in docs must exist
# ----------------------------------------------------------------------
def _cli_spec() -> dict[str, set[str]]:
    """``{subcommand: {--flag, ...}}`` from the real parser."""
    from repro.__main__ import build_parser

    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {opt for act in p._actions for opt in act.option_strings}
        for name, p in sub.choices.items()
    }


def _fenced_blocks(text: str) -> list[str]:
    return re.findall(r"```[a-z]*\n(.*?)```", text, re.DOTALL)


def _repro_invocations(text: str):
    """Every ``python -m repro <sub> ...`` line in fenced blocks.

    An indented line that starts with ``--flag`` continues the invocation
    above it (the aligned flag table of docs/api.md).
    """
    for block in _fenced_blocks(text):
        joined = re.sub(r"\\\s*\n\s*", " ", block)  # backslash continuations
        joined = re.sub(r"\n[ \t]+(?=--)", " ", joined)  # aligned flag lines
        for line in joined.splitlines():
            m = re.match(r"(?:\$\s+)?python -m repro\s+(\S+)(.*)", line.strip())
            if m:
                yield m.group(1), m.group(2)


def test_docs_reference_real_cli():
    spec = _cli_spec()
    seen = 0
    for path in DOC_FILES:
        for sub, rest in _repro_invocations(path.read_text()):
            seen += 1
            assert sub in spec, f"{path.name}: unknown subcommand {sub!r}"
            for flag in re.findall(r"--[a-z][\w-]*", rest):
                assert flag in spec[sub], (
                    f"{path.name}: `python -m repro {sub}` has no {flag}"
                )
    assert seen >= 8  # the docs actually show CLI usage


def test_every_cli_flag_is_documented():
    """The reverse direction: each user-facing flag appears in some doc."""
    spec = _cli_spec()
    corpus = "\n".join(p.read_text() for p in DOC_FILES)
    for sub, flags in spec.items():
        for flag in flags - {"-h", "--help"}:
            assert flag in corpus, f"`repro {sub} {flag}` is undocumented"


def test_service_flags_agree_with_docs():
    """Both directions for the serve/bench-service pair: every flag the
    parser accepts appears in the docs corpus, and the docs demonstrate
    the commands with real flags (checked by test_docs_reference_real_cli
    for validity; here for presence)."""
    spec = _cli_spec()
    assert "serve" in spec and "bench-service" in spec
    # the service-specific knobs exist on the parser...
    assert {"--service-workers", "--max-queue", "--max-batch",
            "--cache-mb", "--warm-dir", "--deadline-ms",
            "--clients", "--requests"} <= spec["serve"]
    assert {"--clients", "--requests", "--max-batch",
            "--smoke"} <= spec["bench-service"]

    # ...every user-facing flag of both commands appears in the docs
    corpus = "\n".join(p.read_text() for p in DOC_FILES)
    for sub in ("serve", "bench-service"):
        for flag in spec[sub] - {"-h", "--help"}:
            assert flag in corpus, f"`repro {sub} {flag}` is undocumented"

    # ...and the docs actually invoke both commands in fenced blocks
    invoked = set()
    for path in DOC_FILES:
        for cmd, _rest in _repro_invocations(path.read_text()):
            invoked.add(cmd)
    assert {"serve", "bench-service"} <= invoked


def test_tune_flags_agree_with_docs():
    """Both directions for the autotuner: every ``tune`` flag the parser
    accepts appears in the docs corpus, and the docs demonstrate the
    calibrate → sweep → verify workflow with real invocations."""
    spec = _cli_spec()
    # the sweep-specific knobs exist on the parser...
    assert {"--from-run", "--grid", "--target-nt", "--verify",
            "--tolerance", "--smoke", "--workers", "--emit", "--report",
            "--verify-obs"} <= spec["tune"]
    # ...and the config hand-off exists on both consumers
    assert "--config" in spec["execute"]
    assert "--config" in spec["demo"]

    # every user-facing tune flag appears in the docs
    corpus = "\n".join(p.read_text() for p in DOC_FILES)
    for flag in spec["tune"] - {"-h", "--help"}:
        assert flag in corpus, f"`repro tune {flag}` is undocumented"

    # the docs actually demonstrate the loop: tune --from-run with
    # --verify and --emit, and execute --config consuming the result
    tune_flags, execute_flags = set(), set()
    for path in DOC_FILES:
        for cmd, rest in _repro_invocations(path.read_text()):
            flags = set(re.findall(r"--[a-z][\w-]*", rest))
            if cmd == "tune":
                tune_flags |= flags
            elif cmd == "execute":
                execute_flags |= flags
    assert {"--from-run", "--verify", "--emit"} <= tune_flags
    assert "--config" in execute_flags


def test_live_telemetry_flags_agree_with_docs():
    """Both directions for the live monitoring plane: the serve
    ``--listen``/``--slo``/``--linger`` flags and the ``top`` dashboard
    exist on the parser and appear in the docs corpus, with real
    demonstrated invocations."""
    spec = _cli_spec()
    assert {"--listen", "--slo", "--linger"} <= spec["serve"]
    assert {"--interval", "--iterations", "--once"} <= spec["top"]

    corpus = "\n".join(p.read_text() for p in DOC_FILES)
    for flag in spec["top"] - {"-h", "--help"}:
        assert flag in corpus, f"`repro top {flag}` is undocumented"
    for flag in ("--listen", "--slo", "--linger"):
        assert flag in corpus, f"{flag} is undocumented"

    invoked = set()
    serve_flags = set()
    for path in DOC_FILES:
        for cmd, rest in _repro_invocations(path.read_text()):
            invoked.add(cmd)
            if cmd == "serve":
                serve_flags |= set(re.findall(r"--[a-z][\w-]*", rest))
    assert "top" in invoked
    assert {"--listen", "--slo"} <= serve_flags


def test_executor_flags_agree_with_docs():
    """The distributed-executor flags exist, with the documented choices,
    and the docs show them in actual invocations (not just prose)."""
    spec = _cli_spec()
    assert {"--executor", "--ranks", "--calibrate-from"} <= spec["execute"]

    from repro.__main__ import build_parser

    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    execute = sub.choices["execute"]
    choices = next(
        act.choices for act in execute._actions
        if "--executor" in act.option_strings
    )
    assert set(choices) == {"threads", "processes", "sim"}

    used = set()
    for path in DOC_FILES:
        for cmd, rest in _repro_invocations(path.read_text()):
            if cmd == "execute":
                for m in re.finditer(r"--executor\s+(\S+)", rest):
                    used.add(m.group(1))
    # The docs demonstrate both the real distributed backend and the
    # predicted one, with backend names the parser accepts.
    assert {"processes", "sim"} <= used
    assert used <= set(choices)
