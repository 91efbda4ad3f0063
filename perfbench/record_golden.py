"""Write golden.json: digests and input descriptors at the default seed.

    python3 perfbench/record_golden.py

Runs one pass of every workload and records the sha256 of its face -> type
tables, output documents and certificates, and the descriptors of its
inputs.  The benchmark counts any later mismatch as a failure, so rerun this
only when a change is meant to alter the inputs or the outputs.
"""

import json
import sys

import run


def main():
    error = run.use_checkout_library()
    if error:
        print(f"record_golden.py: {error}", file=sys.stderr)
        return 2
    import driver
    import workloads

    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = driver.WORKDIR / name
        workdir.mkdir(parents=True, exist_ok=True)
        inputs = workload.setup(workloads.DEFAULT_SEED, workdir)
        result = workload.run_pass(inputs, workdir)
        golden[name] = {"inputs": workloads.descriptors(result.surfaces),
                        "digests": workloads.digests(result.surfaces)}
    path = driver.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
