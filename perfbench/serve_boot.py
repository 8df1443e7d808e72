"""Start ``repro serve`` with the benchmark's hooks installed.

Usage::

    python3 perfbench/serve_boot.py <calib-dir> <layers.json|-> serve <flags...>

Hands the arguments after the first two to ``repro.harness.cli.main``,
so the server runs the same code and topology as a plain ``repro
serve``.  Before that it installs:

- :class:`hostspeed.Interleaver` calibration.  One runs from the
  process's start to ``SIGUSR1``, which writes its result to
  ``<calib-dir>/<pid>.setup``, starts another and acknowledges with
  ``<pid>.on``; ``SIGUSR2`` stops that one and writes its result to
  ``<pid>.json``.  The process registers itself as ``<pid>.pid``.  A
  process forked from it (the server's pool worker) registers itself
  too, and starts its own interleaver at once if its parent's was
  running;
- with a ``layers.json`` path, the store wrappers of :mod:`spans`,
  whose metrics are written there when the server shuts down.
"""

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hostspeed import SETUP_PERIOD_S, Interleaver  # noqa: E402


def write(path: Path, text: str) -> None:
    """Write ``text`` so a reader never sees a partial file."""
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def install_interleaver(calib_dir: Path) -> None:
    setup, interleaver = Interleaver(SETUP_PERIOD_S), Interleaver()

    def register() -> None:
        write(calib_dir / f"{os.getpid()}.pid", "")

    def on_start(*_signal) -> None:
        if setup.active:
            write(calib_dir / f"{os.getpid()}.setup",
                  json.dumps(setup.stop()))
        interleaver.start()
        write(calib_dir / f"{os.getpid()}.on", "")

    def on_stop(*_signal) -> None:
        if interleaver.active:
            write(calib_dir / f"{os.getpid()}.json",
                  json.dumps(interleaver.stop()))

    def after_fork() -> None:
        register()
        setup.active = False  # the child did not set up
        if interleaver.active:
            interleaver.start()

    signal.signal(signal.SIGUSR1, on_start)
    signal.signal(signal.SIGUSR2, on_stop)
    os.register_at_fork(after_in_child=after_fork)
    register()
    setup.start()


def main(argv: list[str]) -> int:
    calib_dir, layers_out, cli_args = Path(argv[0]), argv[1], argv[2:]
    install_interleaver(calib_dir)
    from repro.harness.cli import main as cli_main

    if layers_out == "-":
        return cli_main(cli_args)
    from spans import SpanRecorder, install, layer_metrics

    recorder = SpanRecorder()
    install(recorder, "store")
    try:
        return cli_main(cli_args)
    finally:
        Path(layers_out).write_text(json.dumps(layer_metrics(recorder)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
