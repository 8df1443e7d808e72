"""Start-up cost: what importing and running a short command loads.

Each check runs in a fresh interpreter, so the modules it sees are the
ones the command itself pulls in.  ``scipy.stats``, ``scipy.spatial``
and ``networkx`` are imported at their first use; none of them is
needed to import the CLI or to run a model-only cell, and networkx is
an optional dependency (the ``aiwc`` extra).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Third-party modules that only a statistics, mesh or diversity call
#: may load.
HEAVY = ("scipy.stats", "scipy.spatial", "networkx")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; return the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_loads_no_heavy_module():
    loaded = run_fresh(f"""
        import json, sys
        import repro.harness.cli
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
    """)
    assert loaded == []


def test_every_subpackage_imports_without_heavy_modules():
    """Each deferred import lives in a module its package loads, so
    importing all of ``repro`` catches any one moved back to the top."""
    loaded = run_fresh(f"""
        import importlib, json, pkgutil, sys
        import repro
        names = [m.name for m in pkgutil.iter_modules(repro.__path__)]
        for name in names:
            importlib.import_module("repro." + name)
        assert {{"aiwc.diversity", "dwarfs.umesh", "regress.trajectory",
                 "scibench.stats"}} <= {{
            m[len("repro."):] for m in sys.modules}}
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
    """)
    assert loaded == []


def test_import_repro_loads_no_subpackage():
    report = run_fresh("""
        import json, sys
        import repro
        before = sorted(m for m in sys.modules if m.startswith("repro."))
        ocl = repro.ocl
        from repro import dwarfs
        print(json.dumps({
            "before": before,
            "ocl": ocl.__name__,
            "dwarfs": dwarfs.create.__module__,
            "all": sorted(repro.__all__),
        }))
    """)
    assert report["before"] == []
    assert report["ocl"] == "repro.ocl"
    assert report["dwarfs"].startswith("repro.dwarfs")
    assert "harness" in report["all"]


def test_import_repro_rejects_unknown_attribute():
    import repro

    with pytest.raises(AttributeError, match="no_such_subpackage"):
        repro.no_such_subpackage  # noqa: B018


_NO_NETWORKX = 'import sys\nsys.modules["networkx"] = None\n'


def test_list_devices_runs_without_networkx():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NETWORKX
         + "from repro.harness.cli import main\n"
         "sys.exit(main(['list-devices']))\n"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "i7-6700K" in proc.stdout


def test_model_only_cells_load_no_scipy_without_networkx():
    """What a served or swept model-only cell pays: no scipy at all."""
    report = run_fresh(_NO_NETWORKX + """
import json
from repro.harness.runner import RunConfig, run_benchmark
cells = [("kmeans", "i7-6700K"), ("fft", "GTX 1080"),
         ("crc", "Xeon Phi 7210"), ("nqueens", "i7-6700K")]
results = [run_benchmark(RunConfig(name, "tiny", device, samples=3,
                                   execute=False))
           for name, device in cells]
print(json.dumps({
    "times": [len(r.times_s) for r in results],
    "scipy": sorted(m for m in sys.modules
                    if m == "scipy" or m.startswith("scipy.")),
}))
""")
    assert report["times"] == [3, 3, 3, 3]
    assert report["scipy"] == []
