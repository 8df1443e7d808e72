"""The four workloads: their cells, the served request sequence, and
the output pins they are checked against.

Every workload runs the program with its own ``seed=12345`` and
``samples=50``.  The benchmark's workload seed only generates
``serve_hub``'s request sequence; the program sees only the requests.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("sweep_model", "sweep_exec", "lint_ir", "serve_hub")

PROGRAM_SEED = 12345
SAMPLES = 50

#: One device per vendor for the functional pass.
EXEC_DEVICES = ("i7-6700K", "GTX 1080", "R9 290X")
#: The 100 served cells: the 10 paper benchmarks that have both the
#: tiny and the small preset (all but nqueens) x 2 sizes x 5 devices.
#: Listed here, not derived from the registry, so the benchmark's
#: own process never imports the program.
SERVE_CELLS = [
    (name, size, device)
    for name in ("crc", "csr", "dwt", "fft", "gem", "hmm", "kmeans", "lud",
                 "nw", "srad")
    for size in ("tiny", "small")
    for device in ("i7-6700K", "GTX 1080", "R9 290X", "K40m",
                   "Xeon Phi 7210")
]
SERVE_REQUESTS = 600
#: Chance that a request repeats a cell requested earlier.
SERVE_REPEAT_P = 0.6
SERVE_CLIENTS = 2

PINS_PATH = Path(__file__).resolve().parent / "pins.json"


def cell_id(benchmark: str, size: str, device: str) -> str:
    return f"{benchmark}/{size}/{device}"


def payload_digest(payload: dict) -> str:
    """SHA-256 of a result payload as sorted-key JSON."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def model_configs() -> list:
    """The model-only paper matrix in ``run all`` order (315 cells)."""
    from repro.devices.catalog import device_names
    from repro.dwarfs.registry import BENCHMARKS
    from repro.harness.runner import RunConfig

    return [
        RunConfig(benchmark=name, size=size, device=device,
                  samples=SAMPLES, execute=False, validate=False,
                  seed=PROGRAM_SEED)
        for name in sorted(BENCHMARKS)
        for size in BENCHMARKS[name].available_sizes()
        if size in ("tiny", "small")
        for device in device_names()
    ]


def exec_configs() -> list:
    """The functional pass: every paper benchmark at tiny (33 cells)."""
    from repro.dwarfs.registry import BENCHMARKS
    from repro.harness.runner import RunConfig

    return [
        RunConfig(benchmark=name, size="tiny", device=device,
                  samples=SAMPLES, execute=True, validate=True,
                  seed=PROGRAM_SEED)
        for name in sorted(BENCHMARKS)
        for device in EXEC_DEVICES
    ]


def request_sequence(cells: list, seed: int) -> list:
    """``SERVE_REQUESTS`` requests over ``cells``, generated from ``seed``.

    New cells come from a seeded permutation, so every cell is asked
    for and the computed count does not depend on the seed; with
    chance ``SERVE_REPEAT_P`` (or once all are asked for) a request
    repeats an earlier one instead.
    """
    rng = random.Random(seed)
    fresh = list(cells)
    rng.shuffle(fresh)
    asked: list = []
    sequence = []
    for _ in range(SERVE_REQUESTS):
        if asked and (not fresh or rng.random() < SERVE_REPEAT_P):
            sequence.append(rng.choice(asked))
        else:
            asked.append(fresh.pop())
            sequence.append(asked[-1])
    return sequence
