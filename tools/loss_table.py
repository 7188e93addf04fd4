"""The paper's loss-table orderings on the default benchmark, over seeds.

Trains `training.benchmark_map` for every loss under the soft margin and
the 0.2 hinge at each seed (the seed changes the data, the split, the
init and the batches) and prints the cells' validation mAP and the
difference table as JSON. From the repository root, on one core:

    PYTHONPATH=src python3 tools/loss_table.py > BENCH_loss_table.json
"""

import json
import os
import platform
import statistics
import time

import numpy as np

from tripletkit import losses, training

SEEDS = list(range(24))
MARGINS = ("soft", "0.2")
COMMAND = "PYTHONPATH=src python3 tools/loss_table.py > BENCH_loss_table.json"

# (claim, cell a, cell b, threshold): the claim holds at a seed when
# mAP(a) - mAP(b) > threshold, or >= it for criterion 06's 0.05
CLAIMS = (
    ("soft BH - hinge-0.2 triplet >= 0.05 (criterion 06)",
     "batch_hard/soft", "triplet/0.2", 0.05),
    ("soft BH - hinge-0.2 triplet > 0", "batch_hard/soft", "triplet/0.2", 0),
    ("soft BH - hinge-0.2 BH > 0", "batch_hard/soft", "batch_hard/0.2", 0),
    ("hinge 0.2: BA!=0 - BA > 0", "batch_all_nnz/0.2", "batch_all/0.2", 0),
    ("soft: BH - BA > 0", "batch_hard/soft", "batch_all/soft", 0),
    ("hinge 0.2: BH - BA > 0", "batch_hard/0.2", "batch_all/0.2", 0),
    ("hinge 0.2: BH - triplet_ohm > 0", "batch_hard/0.2", "triplet_ohm/0.2", 0),
    ("soft: BH - lifted > 0", "batch_hard/soft", "lifted/soft", 0),
    ("soft: BH - lifted_gen > 0", "batch_hard/soft", "lifted_gen/soft", 0),
    ("hinge 0.2: BH - lmnn > 0", "batch_hard/0.2", "lmnn/0.2", 0),
)


def difference(claim: str, a: list, b: list, threshold: float) -> dict:
    gaps = [x - y for x, y in zip(a, b)]
    holds = sum(g >= threshold if threshold else g > 0 for g in gaps)
    return {"claim": claim, "mean": round(statistics.fmean(gaps), 4),
            "min": round(min(gaps), 4), "max": round(max(gaps), 4),
            "holds_at": f"{holds}/{len(gaps)}",
            "seed_7": round(gaps[SEEDS.index(training.BENCHMARK_SEED)], 4)}


def main() -> None:
    start = time.perf_counter()
    cells = {f"{loss}/{margin}": [training.benchmark_map(
        loss, losses.parse_margin(margin), seed) for seed in SEEDS]
        for loss in losses.LOSS_NAMES for margin in MARGINS}
    seconds = time.perf_counter() - start
    print(json.dumps({
        "topic": "validation mAP of training.benchmark_map for every loss "
                 "x {soft, hinge 0.2}, seeds 0-23, and the paper's "
                 "orderings across those seeds",
        "command": COMMAND,
        "host": {"platform": platform.platform(), "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__, "seconds": round(seconds, 1)},
        "seeds": SEEDS,
        "map": cells,
        "differences": [difference(claim, cells[a], cells[b], threshold)
                        for claim, a, b, threshold in CLAIMS],
        "cell_mean_sd": {name: [round(statistics.fmean(v), 4),
                                round(statistics.stdev(v), 4)]
                         for name, v in cells.items()},
    }, indent=1))


if __name__ == "__main__":
    main()
