"""Regenerate pins.json: the outputs each input set must reproduce.

    python3 perfbench/pin.py [workload ...]

For every workload named (all by default) and every input set, this runs the
set-up and one unit at full scale and records the values the output checks
compare against.  Run it only when the inputs themselves change; a change to
the package must reproduce the pinned values within the tolerances in
bench_workloads.py.
"""
import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

from bench_workloads import FULL, INPUT_SETS, WORKLOADS


def main(names) -> int:
    ld = run.import_package()
    path = os.path.join(run.HERE, "pins.json")
    with open(path) as fh:
        pins = json.load(fh)
    workdir = os.path.join(run.OUT_DIR, f"pin-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in names:
            table = {}
            for input_set in range(INPUT_SETS):
                workload = WORKLOADS[name](ld, input_set, workdir, FULL, None)
                workload.setup()
                unit = workload.run_unit()
                workload.check(unit)
                if unit.problems:
                    print(f"{name} set {input_set}: {unit.problems}", file=sys.stderr)
                    return 1
                table[str(input_set)] = workload.pin(unit)
                print(f"{name} set {input_set}: {table[str(input_set)]}", flush=True)
            pins[name] = table
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(WORKLOADS)))
