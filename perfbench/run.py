"""Benchmark for trizig: analysis, shredding and certificate replay.

    python3 perfbench/run.py --workload analyze-torus --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the library is imported from its
``src`` directory, and the run stops with exit code 2 when that is missing.
Workloads are described in ``workloads.py``; ``driver.py`` runs them.
"""

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def use_checkout_library():
    """Put the checkout's ``src`` first on the path; an error message if absent."""
    if not (SRC / "trizig" / "__init__.py").is_file():
        return f"no trizig sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import trizig
    if pathlib.Path(trizig.__file__).resolve().parent != SRC / "trizig":
        return f"imported trizig from {trizig.__file__}, not from {SRC}"
    return None


def main():
    error = use_checkout_library()
    if error:
        print(f"run.py: {error}", file=sys.stderr)
        return 2
    import driver
    return driver.main()


if __name__ == "__main__":
    sys.exit(main())
