"""Recompute the pinned batch digests in digests.json.

    python3 perfbench/pin_digests.py

Run this only when the workload generators change, on a commit whose
outputs are trusted; it solves the batch of every workload for the
default seeds at both sizes.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, SRC, WORKLOAD_NAMES

PINNED_SEEDS = range(11)


def main() -> None:
    sys.path.insert(0, str(SRC))
    from checks import Coset, combined_digest
    from normsim import parse_circuit, simulate
    from workloads import WORKLOADS, circuit_text

    pinned = {}
    for size in ("toy", "full"):
        pinned[size] = {}
        for name in WORKLOAD_NAMES:
            workload = WORKLOADS[size][name]
            pinned[size][name] = {}
            for seed in PINNED_SEEDS:
                digests = []
                for i in range(workload.batch):
                    circuit = parse_circuit(circuit_text(workload, size, seed, i))
                    digests.append(Coset(simulate(circuit.coset, circuit.gates)).digest())
                pinned[size][name][str(seed)] = combined_digest(digests)
                print(size, name, seed, pinned[size][name][str(seed)], flush=True)
    (BENCH / "digests.json").write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()
