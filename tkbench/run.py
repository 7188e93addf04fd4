"""Benchmark launcher.

    python3 tkbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Pins BLAS/OpenMP threads to 1 and glibc's malloc thresholds (see
tkbench/__init__.py), then runs the benchmark against the
tripletkit sources in `src/` of the checkout this file sits in. Exits 2
without a result when those sources are missing. Each operation runs in a
process of its own, started through this file with `--operation`; on
SIGTERM the launcher kills and waits for the one running.
"""

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT))
    from tkbench import pin_environment
    pin_environment()
    if not (ROOT / "src" / "tripletkit" / "__init__.py").is_file():
        print(f"error: no tripletkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tkbench import harness
    if sys.argv[1:2] == [harness.OPERATION_FLAG]:
        return harness.operation_main(sys.argv[2:])
    # SystemExit unwinds through subprocess.run, which kills the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    return harness.main(sys.argv[1:], root=ROOT)


if __name__ == "__main__":
    sys.exit(main())
