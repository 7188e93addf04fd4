"""tripletkit's benchmark: three closed-loop workloads, a correctness check
for each, and a traced run for the per-layer split.

Run it from the repository root:

    python3 tkbench/run.py --workload loss_grid --seed 7 --seconds 30 --trace 0
"""

import os

# Settings the launcher pins for every process it starts; each operation
# runs in a fresh process, which reads them at start-up.
PINNED_ENV = {
    # One BLAS/OpenMP thread, so reduction order is fixed and val_map and
    # val_rank1 repeat exactly for a given seed.
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    # Fixed glibc malloc thresholds. With the default dynamic threshold,
    # about one process in four (depending on address-space layout) maps
    # and faults in fresh pages for every per-query temporary of
    # `evalkit.evaluate`: 2M page faults and +70% evaluation time per
    # eval_gallery operation. Fixed thresholds give every process the
    # heap path that the others take.
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}


def pin_environment() -> None:
    """Apply PINNED_ENV; call before importing NumPy."""
    os.environ.update(PINNED_ENV)
