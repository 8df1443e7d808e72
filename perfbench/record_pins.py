"""Record the output pins the benchmark checks every run against.

Run from the repository root at a commit whose outputs are correct::

    python3 perfbench/record_pins.py

It writes ``perfbench/pins.json``: the SHA-256 of every sweep cell's
sorted-key ``result_to_payload`` JSON (``serve_hub`` is checked
against the ``sweep_model`` table) and the finding count and byte
digest of the ``lint --deep --traces --aiwc --json`` report.  Re-record
only for a change that is meant to alter the program's outputs.
"""

import json
import sys

import work
import workloads


def main() -> int:
    pins = {}
    for name in ("sweep_model", "sweep_exec"):
        configs = work.configs_for(name)
        _wall, _cpu, outputs, errors = work.sweep_pass(configs)
        unvalidated = [cid for cid, (_d, ok) in outputs.items()
                       if name == "sweep_exec" and not ok]
        if errors or unvalidated:
            print(f"{name}: refusing to pin failing cells: "
                  f"{errors + unvalidated}", file=sys.stderr)
            return 1
        pins[name] = {cid: digest for cid, (digest, _ok) in outputs.items()}
    _wall, _cpu, digest, findings, errors = work.lint_pass()
    if errors or findings:
        print(f"lint_ir: refusing to pin {findings} findings {errors}",
              file=sys.stderr)
        return 1
    pins["lint_ir"] = {"findings": findings, "report_sha256": digest}
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True)
                                   + "\n")
    print(f"wrote {workloads.PINS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
