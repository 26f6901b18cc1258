"""The normsim benchmark: seeded workloads against the public API.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--toy]

Run from a checkout that holds `src/normsim`. The load is one
closed-loop client in a single process: each circuit is submitted only
after the previous one has finished. Every run

- generates circuit text from the seed (see workloads.py) and times
  `parse_circuit` + `simulate` on it (the `normsim support` path), then
  sampling with `sample_stream` + `str()` (the `normsim simulate` path)
  and, on small-sample, `compare_with_engine` (the `normsim verify`
  path), circuit after circuit until `--seconds` have passed and at
  least the workload's batch is done;
- checks every result outside the timed regions (see checks.py);
- prints each metric by name with its unit, and as its last line one
  JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics. `--trace 1` solves the
workload's fixed batch once untraced and once with the wrappers of
tracing.py installed, and reports per-module metrics. The exit code is 0
when every check passed, 1 when one failed and 2 when there is nothing
to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("clifford-wide", "mixed-auto", "small-sample")
SETUP_PROCESSES = {"full": 7, "toy": 3}
# a run stops taking new circuits after this long even inside its batch
HARD_STOP_S = 120.0
SHOTS_CHECKED = 5


def _median_import_s(n: int) -> float:
    """Median wall time of n fresh interpreters running `import normsim.cli`."""
    cmd = [sys.executable, "-c", "import normsim.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # writes bytecode caches
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _import_split_s(n: int) -> tuple[float, float]:
    """Median (numpy, rest of normsim) cumulative import times, from -X importtime."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import normsim.cli"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    numpy_s, normsim_s = [], []
    for _ in range(n):
        err = subprocess.run(
            cmd, env=env, cwd=ROOT, check=True, capture_output=True, text=True
        ).stderr
        numpy_us = normsim_us = 0
        for line in err.splitlines():
            parts = line.split("|")  # "import time: self | cumulative | name"
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name, cumulative = parts[2][1:], int(parts[1])
            nested = name.startswith(" ")
            if name.strip() == "numpy":
                numpy_us = cumulative
                if nested:  # numpy's time is inside normsim's cumulative
                    normsim_us -= cumulative
            elif not nested and name.split(".")[0] == "normsim":
                normsim_us += cumulative
        numpy_s.append(numpy_us / 1e6)
        normsim_s.append(normsim_us / 1e6)
    return statistics.median(numpy_s), statistics.median(normsim_s)


class Run:
    """One workload run: timed calls, correctness checks, counters."""

    def __init__(self, workload, seed: int, tracer=None):
        import checks
        import normsim.circuits
        import normsim.engine
        import normsim.oracle

        self.checks = checks
        self.circuits = normsim.circuits
        self.engine = normsim.engine
        self.oracle = normsim.oracle
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.solve_s: list[float] = []
        self.verify_s: list[float] = []
        self.sample_s = 0.0
        self.shots = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.first_circuit = None

    def _root(self, name: str, index: int, info=None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.root(name, index, info)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def solve(self, text: str, index: int):
        """Circuit text to OutputDistribution, timed; returns (circuit, dist)."""
        self.attempted += 1
        try:
            with self._root("solve", index):
                t0 = time.perf_counter()
                circuit = self.circuits.parse_circuit(text)
                dist = self.engine.simulate(circuit.coset, circuit.gates)
                t1 = time.perf_counter()
        except Exception as err:  # counted, reported, and the run goes on
            self.fail(f"circuit {index}: solve raised {err!r}")
            return None, None
        self.solve_s.append(t1 - t0)
        return circuit, dist

    def process(self, text: str, index: int) -> None:
        """Solve, sample and (on small-sample) verify one circuit, then check it."""
        circuit, dist = self.solve(text, index)
        if index < self.workload.batch:
            self.digests.append(
                "error" if dist is None else self.checks.Coset(dist).digest()
            )
        if dist is None:
            return
        if index == 0:
            self.first_circuit = circuit
        coset = self.checks.Coset(dist)
        shots = self.workload.shots
        self.attempted += 1
        head = []
        try:
            with self._root("sample", index):
                t0 = time.perf_counter()
                for k, shot in enumerate(
                    self.engine.sample_stream(dist, shots, self.seed * 1_000_003 + index)
                ):
                    str(shot)
                    if k < SHOTS_CHECKED:
                        head.append(shot.residues)
                t1 = time.perf_counter()
        except Exception as err:
            self.fail(f"circuit {index}: sampling raised {err!r}")
        else:
            self.sample_s += t1 - t0
            self.shots += shots
            if not all(coset.contains(s) for s in head):
                self.fail(f"circuit {index}: a shot lies outside the output coset")
        if self.workload.verify:
            self.attempted += 1
            try:
                with self._root("verify", index, circuit.group.order):
                    t0 = time.perf_counter()
                    report = self.oracle.compare_with_engine(circuit.coset, circuit.gates)
                    t1 = time.perf_counter()
            except Exception as err:
                self.fail(f"circuit {index}: verify raised {err!r}")
            else:
                self.verify_s.append(t1 - t0)
                if not report.passed:
                    self.fail(f"circuit {index}: dense oracle disagrees: {report.summary()}")

    def final_checks(self, pinned: dict) -> None:
        """Metamorphic check on the first circuit, then the pinned digest."""
        if self.workload.metamorphic and self.first_circuit is not None:
            self.attempted += 1
            try:
                problem = self.checks.metamorphic_failure(
                    self.first_circuit, self.engine.simulate
                )
            except Exception as err:
                problem = f"raised {err!r}"
            if problem:
                self.fail(f"circuit 0: metamorphic check: {problem}")
        expected = pinned.get(self.workload.name, {}).get(str(self.seed))
        if expected is not None and len(self.digests) == self.workload.batch:
            self.attempted += 1
            got = self.checks.combined_digest(self.digests)
            if got != expected:
                self.fail(f"batch digest {got} differs from pinned {expected}")


def _percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_workload(name: str, size: str, seed: int, seconds: float, trace: bool, pinned: dict):
    """Run one workload; returns (metrics {name: (value, unit, note)}, run)."""
    import tracing
    from workloads import WORKLOADS, circuit_text

    workload = WORKLOADS[size][name]
    metrics: dict[str, tuple[float, str, str]] = {}
    if not trace:
        metrics["setup_s"] = (
            _median_import_s(SETUP_PROCESSES[size]), "s",
            f"median of {SETUP_PROCESSES[size]} fresh processes",
        )
        run = Run(workload, seed)
        start = time.perf_counter()
        index = 0
        while True:
            run.process(circuit_text(workload, size, seed, index), index)
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S or (index >= workload.batch and elapsed >= seconds):
                break
        run.final_checks(pinned)
        n = len(run.solve_s)
        if n:
            metrics["solve_s_p50"] = (statistics.median(run.solve_s), "s", f"{n} circuits")
            if n >= 100:
                metrics["solve_s_p90"] = (_percentile(run.solve_s, 90), "s", f"{n} circuits")
        if run.sample_s > 0:
            metrics["shots_per_s"] = (run.shots / run.sample_s, "1/s", f"{run.shots} shots")
        if run.verify_s:
            metrics["verify_s_p50"] = (
                statistics.median(run.verify_s), "s", f"{len(run.verify_s)} circuits"
            )
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB", "this process")
    else:
        numpy_s, normsim_s = _import_split_s(SETUP_PROCESSES[size])
        metrics["cli.import_numpy_s"] = (numpy_s, "s", "-X importtime, median")
        metrics["cli.import_normsim_s"] = (normsim_s, "s", "-X importtime, median")
        texts = [circuit_text(workload, size, seed, i) for i in range(workload.batch)]
        plain = Run(workload, seed)
        for i, text in enumerate(texts):
            plain.solve(text, i)
        tracer = tracing.Tracer()
        run = Run(workload, seed, tracer)
        tracer.install()
        try:
            for i, text in enumerate(texts):
                run.process(text, i)
        finally:
            tracer.uninstall()
        run.final_checks(pinned)
        run.attempted += plain.attempted
        run.failures += plain.failures
        units = {"_s": "s", "_us_per_gen_gate": "us", "_us_per_shot": "us",
                 "_frac": "ratio", "_bits": "bits"}
        for key, value in tracing.layer_metrics(
            tracer.spans, len(run.solve_s), run.shots
        ).items():
            unit = next((u for suffix, u in units.items() if key.endswith(suffix)), "count")
            note = "max over the batch" if ".max_" in key else "per circuit"
            metrics[key] = (value, unit, note)
        if plain.solve_s and run.solve_s:
            overhead = statistics.median(run.solve_s) / statistics.median(plain.solve_s) - 1
            metrics["trace.overhead_frac"] = (overhead, "ratio", "traced over untraced solve_s_p50")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{size}-{name}.jsonl")
    attempted = max(run.attempted, 1)
    metrics["failed_frac"] = (
        len(run.failures) / attempted, "ratio",
        f"{len(run.failures)} of {run.attempted} operations",
    )
    return metrics, run


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "normsim" / "__init__.py").is_file():
        print(f"perfbench: no normsim sources at {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    size = "toy" if args.toy else "full"
    pinned = json.loads((BENCH / "digests.json").read_text())[size]
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    status = 0
    for name in names:
        metrics, run = run_workload(name, size, args.seed, args.seconds, bool(args.trace), pinned)
        print(f"# workload {name} seed {args.seed} trace {args.trace} ({size} size)")
        for key, (value, unit, note) in metrics.items():
            print(f"{key} = {value:.6g} {unit}  ({note})")
        for problem in run.failures:
            print(f"FAILED: {problem}")
        result = {
            "correct": not run.failures,
            "attempted": max(run.attempted, 1),
            "failed": len(run.failures),
            "metrics": {
                m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                for m in declared
                if m["name"] in metrics
            },
        }
        print(json.dumps(result), flush=True)
        if run.failures:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
