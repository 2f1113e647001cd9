"""Record the values the benchmark checks its outputs against.

For each workload and seed this stores the CRC of the generated input,
the CRC of every sketch's on-arrival estimates and the final-state AAE
of SALSA-CMS, SALSA-CS and SALSA-CUS, computed by the same code path
the benchmark times.  The benchmark then requires them bit for bit.

    python3 perfbench/record_golden.py --seeds 0-99

Re-record only when the workload definition changes on purpose; a
change to the library that moves these values is a behaviour change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wl


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="inclusive range, e.g. 0-99")
    args = parser.parse_args(argv)
    lib, _ = run.import_library()
    config = run.golden_config()
    golden = {"config": config, "seeds": {}}
    if run.GOLDEN.exists():
        golden = json.loads(run.GOLDEN.read_text())
        if golden["config"] != config:
            print("golden.json was recorded for another configuration; "
                  "delete it to re-record", file=sys.stderr)
            return 1
    for workload in sorted(wl.WORKLOADS):
        table = golden["seeds"].setdefault(workload, {})
        for seed in args.seeds:
            outcome = wl.Outcome()
            inputs = wl.make_inputs(lib, workload, seed, outcome=outcome)
            reference: dict = {}
            wl.phase_single(lib, inputs, wl.Timer(), outcome, reference)
            if outcome.failed:
                print(f"{workload} seed {seed}: {outcome.errors}",
                      file=sys.stderr)
                return 1
            table[str(seed)] = {"crc32": inputs.crc,
                                "distinct": int(len(inputs.flows)),
                                **reference}
            print(workload, seed, table[str(seed)], flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                          + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
