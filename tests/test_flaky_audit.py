"""Static flakiness audit: seeds pinned, no cross-test RNG state.

A test suite is order-independent only if no test's random draws depend
on which tests ran before it.  Two patterns break that:

* an **unseeded** ``np.random.default_rng()`` (different draws every
  run — failures are unreproducible);
* a **shared** generator (module-/session-scope fixture or module
  global): generators are stateful, so each test's draws depend on the
  prior consumers, and the suite only passes in one collection order
  (``pytest -x -q --lf`` and random ordering both reorder collection).

These tests walk the ASTs of ``tests/`` and ``src/`` and reject both
patterns, plus the legacy global-state API (``np.random.seed`` /
module-level draw functions), which is shared state by construction.
The audit is static on purpose: it fails on the offending line the
moment the pattern is introduced, instead of as a once-a-month ordering
flake nobody can reproduce.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).parent
SRC_DIR = TESTS_DIR.parent / "src"


def _python_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_call_to(node: ast.AST, *names: str) -> bool:
    """Whether ``node`` is a call whose dotted name ends with ``names``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    parts: list[str] = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if isinstance(func, ast.Name):
        parts.append(func.id)
    dotted = ".".join(reversed(parts))
    return any(dotted == n or dotted.endswith("." + n) for n in names)


def _rng_calls(tree: ast.Module) -> list[ast.Call]:
    return [
        node
        for node in ast.walk(tree)
        if _is_call_to(node, "default_rng", "SeedSequence", "RandomState")
    ]


def _fixture_scope(func: ast.FunctionDef) -> str:
    """The pytest fixture scope of ``func``, or '' if not a fixture."""
    for dec in func.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if not _is_call_to(ast.Call(func=target, args=[], keywords=[]),
                           "fixture"):
            continue
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg == "scope" and isinstance(kw.value, ast.Constant):
                    return str(kw.value.value)
        return "function"
    return ""


class TestSeedsPinned:
    def test_every_test_rng_is_seeded(self):
        """No ``default_rng()`` without an explicit seed in tests/."""
        offenders = []
        for path in _python_files(TESTS_DIR):
            for call in _rng_calls(_parsed(path)):
                if not call.args and not call.keywords:
                    offenders.append(f"{path.name}:{call.lineno}")
        assert not offenders, (
            "unseeded RNG constructions (pin a seed): " + ", ".join(offenders)
        )

    def test_every_src_rng_is_seeded(self):
        """Library RNGs must take their seed from the caller, never wall
        entropy — parallel assembly is bit-reproducible only then."""
        offenders = []
        for path in _python_files(SRC_DIR):
            for call in _rng_calls(_parsed(path)):
                if not call.args and not call.keywords:
                    offenders.append(
                        f"{path.relative_to(SRC_DIR)}:{call.lineno}"
                    )
        assert not offenders, (
            "unseeded RNG constructions in src/: " + ", ".join(offenders)
        )

    def test_no_legacy_global_rng_api(self):
        """``np.random.seed``/global draws are process-wide shared state."""
        banned = (
            "np.random.seed",
            "np.random.standard_normal",
            "np.random.rand",
            "np.random.randn",
            "np.random.uniform",
            "np.random.normal",
        )
        offenders = []
        for path in _python_files(TESTS_DIR) + _python_files(SRC_DIR):
            for node in ast.walk(_parsed(path)):
                if isinstance(node, ast.Call) and any(
                    _is_call_to(node, b) for b in banned
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, (
            "legacy global-state RNG API used: " + ", ".join(offenders)
        )


class TestNoSharedGenerators:
    def test_no_module_or_session_scope_rng_fixture(self):
        """Fixtures *returning* a generator must be function-scoped.

        Generators are stateful; sharing one across tests makes each
        test's draws depend on collection order.  A seeded generator
        constructed and fully consumed *inside* a module-scope fixture
        (to build immutable data) is fine — the audit only rejects
        fixtures from which the generator escapes via return/yield.
        """
        offenders = []
        for path in _python_files(TESTS_DIR):
            tree = _parsed(path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                scope = _fixture_scope(node)
                if scope in ("", "function"):
                    continue
                rng_names = {
                    t.id
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Assign)
                    and _is_call_to(sub.value, "default_rng", "RandomState")
                    for t in sub.targets
                    if isinstance(t, ast.Name)
                }
                escapes = False
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.Return, ast.Yield)):
                        value = sub.value
                        if value is None:
                            continue
                        if _is_call_to(value, "default_rng", "RandomState"):
                            escapes = True
                        for name in ast.walk(value):
                            if (
                                isinstance(name, ast.Name)
                                and name.id in rng_names
                            ):
                                escapes = True
                if escapes:
                    offenders.append(
                        f"{path.name}:{node.lineno} ({node.name}, "
                        f"scope={scope})"
                    )
        assert not offenders, (
            "RNG fixtures must be function-scoped: " + ", ".join(offenders)
        )

    def test_no_module_level_rng_global(self):
        """No ``RNG = default_rng(...)`` at test-module top level."""
        offenders = []
        for path in _python_files(TESTS_DIR):
            for node in _parsed(path).body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    value = node.value
                    if value is not None and _is_call_to(
                        value, "default_rng", "RandomState"
                    ):
                        offenders.append(f"{path.name}:{node.lineno}")
        assert not offenders, (
            "module-level RNG globals in tests: " + ", ".join(offenders)
        )


class TestOrderIndependence:
    def test_conftest_rng_fixture_is_function_scoped(self):
        """Regression: the shared ``rng`` fixture used to be
        session-scoped, which made draw sequences collection-order
        dependent."""
        tree = _parsed(TESTS_DIR / "conftest.py")
        scopes = {
            node.name: _fixture_scope(node)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and _fixture_scope(node)
        }
        assert scopes.get("rng") == "function"

    def test_sample_draws_identical_across_orderings(self, rng):
        """The ``rng`` fixture's draws must not depend on prior tests."""
        import numpy as np

        expected = np.random.default_rng(2021).standard_normal(4)
        assert np.array_equal(rng.standard_normal(4), expected)

    @pytest.mark.parametrize("which", ["first", "second"])
    def test_rng_fixture_fresh_per_test(self, rng, which):
        """Both parametrizations see a *fresh* generator — if the
        fixture were cached across tests the second draw would differ."""
        import numpy as np

        expected = np.random.default_rng(2021).integers(0, 1_000_000, 8)
        assert np.array_equal(rng.integers(0, 1_000_000, 8), expected)

    def test_gaussian_pool_is_pinned(self):
        """src's sampler draws its Gaussians once, from a fixed seed, into
        a read-only pool per (tile side, dtype) — not from wall entropy or
        from a generator shared across calls — so a pool drawn again holds
        the same bits."""
        import numpy as np

        from repro.linalg.backends import RandomizedSVDBackend, gaussian_pool

        a = gaussian_pool(64, "d", 40)
        gaussian_pool.cache_clear()
        b = gaussian_pool(64, "d", 40)
        assert b is not a and np.array_equal(a, b) and not a.flags.writeable
        assert np.array_equal(
            a, np.random.default_rng(RandomizedSVDBackend.POOL_SEED)
            .standard_normal((40, 64)).T
        )
