"""The benchmark's input text, pinned.

`perfbench/workloads.py` writes every circuit through normsim's own
builders and `serialize_gate`, so a change under `src/` can change
what the benchmark measures without touching `perfbench/`. This test
loads that module read-only and compares the sha256 of the batch
circuits of each workload, seed 0 at full size, with pinned values.
A change that alters the wire format on purpose must re-pin them.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

PINNED = {
    "clifford-wide": "5eceb172fdfb8e1ae5e8f654599f502c7ff9c3c9d1b67f49da3268703b369a87",
    "mixed-auto": "e854ce74555aa975688d5d1f0c11d8b88cb94399a3a9cc8437b31471d480f388",
    "small-sample": "6ed98e96dfbe7cf45fdb0726e55fc7a323c0a6ac68c8802e1b29136e682a5c9e",
}


def _load_workloads():
    name = "_bench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules while it runs
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


def batch_digest(module, name: str, seed: int = 0) -> str:
    workload = module.WORKLOADS["full"][name]
    h = hashlib.sha256()
    for index in range(workload.batch):
        text = module.circuit_text(workload, "full", seed, index)
        h.update(hashlib.sha256(text.encode()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_batch_circuit_text_is_pinned(name):
    assert batch_digest(_load_workloads(), name) == PINNED[name]
