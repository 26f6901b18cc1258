"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench -q

Runs every workload in seconds, checks that each metric is printed by
name with its unit, that traced counts repeat exactly for one seed, and
that a deliberately corrupted output coset trips the correctness gate.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PRINTED = re.compile(r"^(\S+) = (\S+) (\S+)  \(", re.M)


def _run(capsys, workload: str, trace: int, seed: int = 0):
    code = run.main(
        ["--toy", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)]
    )
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    code, out, result = _run(capsys, workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: unit for name, _, unit in PRINTED.findall(out)}
    expected = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    expected["failed_frac"] = "ratio"
    if workload == "small-sample":
        expected.update(solve_s_p90="s", verify_s_p50="s")
    assert printed == expected
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(capsys, workload):
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    counts = []
    for _ in range(2):
        code, out, result = _run(capsys, workload, trace=1, seed=1)
        assert code == 0 and result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        printed = {name: unit for name, _, unit in PRINTED.findall(out)}
        assert {k: printed[k] for k in declared} == declared
        counts.append({
            k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "bits")
        })
    assert counts[0] == counts[1]
    assert counts[0]["engine.gen_gates"] > 0 and counts[0]["groups.elements_built"] > 0


def _non_member(dist):
    """A unit vector outside the support subgroup, or None if it is all of G."""
    coset = checks.Coset(dist)
    m = len(coset.moduli)
    for i in range(m):
        e = [int(j == i) for j in range(m)]
        if any(checks.reduce_vector(coset.basis, e)):
            return e
    return None


def _corrupt(dist):
    """Shift the offset by an element outside the support, if one exists."""
    e = _non_member(dist)
    if e is None:
        return dist
    return type(dist)(dist.group, dist.offset + dist.group.element(e), dist.support)


def test_canonical_form_ignores_generating_set():
    from normsim import AbelianGroup, OutputDistribution, Subgroup

    rng = random.Random(5)
    for _ in range(50):
        group = AbelianGroup(tuple(rng.choice((2, 4, 6, 9, 12, 2**40)) for _ in range(4)))
        gens = [group.element([rng.randrange(d) for d in group.moduli]) for _ in range(3)]
        offset = group.element([rng.randrange(d) for d in group.moduli])
        k = rng.randrange(-5, 6)
        other = [gens[0] + k * gens[1], gens[1], gens[2], gens[0] + gens[2]]
        a = checks.Coset(OutputDistribution(group, offset, Subgroup(group, tuple(gens))))
        b = checks.Coset(OutputDistribution(group, offset + gens[1], Subgroup(group, tuple(other))))
        assert a.digest() == b.digest()


def test_corrupted_coset_changes_canonical_form():
    from normsim import parse_circuit, simulate
    from workloads import WORKLOADS as SIZES, circuit_text

    for index in range(20):
        circuit = parse_circuit(circuit_text(SIZES["toy"]["small-sample"], "toy", 0, index))
        dist = simulate(circuit.coset, circuit.gates)
        if _non_member(dist) is not None:
            break
    bad = _corrupt(dist)
    assert checks.Coset(bad).digest() != checks.Coset(dist).digest()
    assert not checks.Coset(dist).contains(bad.offset.residues)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_trips_on_corrupted_offset(capsys, monkeypatch, workload):
    import normsim.engine as engine

    real = engine.output_distribution
    monkeypatch.setattr(engine, "output_distribution", lambda labels: _corrupt(real(labels)))
    code, out, result = _run(capsys, workload, trace=0)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED:" in out


def test_refuses_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "small-sample",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
