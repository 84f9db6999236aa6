"""Smoke test of the end-to-end benchmark: every workload at toy size.

Not under ``testpaths``, so tier-1 does not collect it.  Run it as
``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (about half a minute).
The workloads run through ``run.py`` in subprocesses, which is the code
path the driver uses, thread pin included.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_toy(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--toy", "--seconds", "0.2", "--seed", "7", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.rstrip("\n").rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


def declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in CONTRACT[section]}


def test_names_are_well_formed_and_match_the_code():
    sys.path.insert(0, str(HERE))
    import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)
    names = WORKLOADS + list(declared("end_to_end")) + list(declared("per_layer"))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_pass_emits_the_end_to_end_metrics(workload):
    metrics = run_toy(workload, trace=0)
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_emits_the_per_layer_metrics(workload):
    metrics = run_toy(workload, trace=1)
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert metrics["trace.coverage"]["value"] >= 0.95


def bindings(targets) -> dict:
    """Every place a wrapped name is bound, and the object it is bound to."""
    found = {}
    for owner, attr, _, _ in targets:
        if isinstance(owner, type):
            found[owner.__qualname__, attr] = owner.__dict__[attr]
            continue
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and attr in vars(module):
                found[name, attr] = vars(module)[attr]
    return found


def test_wrappers_are_removed_after_the_traced_pass():
    sys.path.insert(0, str(HERE))
    import spans
    import workloads

    targets = spans.repro_targets()
    before = bindings(targets)
    cls, spec = workloads.WORKLOADS["mle_lr"]
    workload = cls(spec, seed=7, toy=True)
    tracer = spans.Tracer()
    ops, _ = workload.traced(tracer, targets)
    assert ops == 2 and tracer.calls["backends.recompress"] > 0

    # a module first imported while the wrappers are in place binds a wrapper
    from repro.linalg import hcore

    late = types.ModuleType("repro._imported_late")
    with tracer.installed(targets):
        assert hcore.gemm_auto is not before["repro.linalg.hcore", "gemm_auto"]
        late.gemm_auto = hcore.gemm_auto
        sys.modules[late.__name__] = late
    del sys.modules[late.__name__]
    assert late.gemm_auto is hcore.gemm_auto

    after = bindings(targets)
    originals = {id(value) for value in before.values()}
    for where, value in after.items():
        assert id(value) in originals, f"{where} is still bound to a wrapper"
        assert before.get(where, value) is value
