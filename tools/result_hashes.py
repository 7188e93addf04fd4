"""SHA-256 digests of the files a run writes, to show two trees agree.

Prints one `<sha256>  <name>` line for each of:

- `checkpoint.json` and `train_log.csv`, written as `tripletkit train`
  writes them, for every loss x {soft, hinge 0.2} at
  `training.benchmark_config` on the default benchmark's training split;
- the same two files for every loss x {soft, hinge 0.2} at the paper's
  batch shape (`paper_config`: P=18, K=4, widths 64,256,128, schedule
  150/300, seed 7) on a 60-identity x 8-item, 64-dim datagen set;
- the `bench-losses` CSV with default flags on a `datagen --ids 40
  --per-id 6 --dim 8` set;
- `eval_report.json`, written by `tripletkit evaluate` with the
  `batch_hard/soft` benchmark checkpoint, plain, with `--multi-query`,
  with `--no-camera-filter` and with `--distractors`: 2000 queries
  against 2000 gallery rows of 250 datagen identities, and 2000
  distractor rows of 250 other identities, so that the queries span
  many of `evaluate`'s blocks, and `--multi-query` pools two rows into
  each of its 1000 queries.

A run that the collapse alarm aborts stops the script with its
`CollapseError`. From the root of each tree, on one core, then compare
the two outputs with `diff`:

    PYTHONPATH=src python3 tools/result_hashes.py > hashes.txt
"""

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from tripletkit import (cli, datagen, diagnostics, losses, numcore, optim,
                        sampling, training)

MARGINS = ("soft", "0.2")


def digest(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def paper_config(loss: str, margin: losses.MarginMode) -> training.RunConfig:
    """The paper's P=18, K=4 batch and 64,256,128 widths, on a short
    schedule."""
    return training.RunConfig(loss=loss, margin=margin, P=18, K=4,
                              layer_widths=[64, 256, 128],
                              schedule=optim.Schedule(1e-3, 150, 300), seed=7)


def paper_set():
    return datagen.generate(datagen.GenSpec(
        num_identities=60, items_per_identity=8, feature_dim=64,
        identity_spread=1.0, intra_spread=1.0, outlier_rate=0.05, seed=7))


def train_files(name: str, cfg: training.RunConfig, train_set,
                out: str) -> list[str]:
    """The lines of one run, whose files are written as `cli.cmd_train`
    writes them, into `out/name`."""
    out = os.path.join(out, name)
    os.makedirs(out)
    log_path = os.path.join(out, "train_log.csv")
    ckpt_path = os.path.join(out, "checkpoint.json")
    with diagnostics.TrainLogWriter(log_path) as writer:
        result = training.train(cfg, train_set, writer)
    numcore.save_checkpoint(ckpt_path, result.params, result.state.to_dict())
    return [f"{digest(log_path)}  {name}/train_log.csv",
            f"{digest(ckpt_path)}  {name}/checkpoint.json"]


def bench_losses_csv(out: str) -> str:
    """The line of a default `bench-losses` grid on a small datagen set."""
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["datagen", "--ids", "40", "--per-id", "6", "--dim", "8",
                      "--out", out],
                     ["bench-losses", "--data", os.path.join(out, "train.csv"),
                      "--out", out]):
            if cli.main(argv) != cli.EXIT_OK:
                raise SystemExit(f"tripletkit {argv[0]} failed")
    return f"{digest(os.path.join(out, 'bench_losses.csv'))}  bench_losses.csv"


def eval_sets(out: str) -> dict[str, str]:
    """Query, gallery and distractor CSVs written into `out`: 8 queries
    (two per camera) and 8 gallery rows of each of 250 identities, and 8
    rows of each of 250 other identities."""
    spec = dict(feature_dim=16, identity_spread=1.0, intra_spread=1.0)
    people = datagen.generate(datagen.GenSpec(
        num_identities=250, items_per_identity=16, seed=7, **spec))
    others = datagen.generate(datagen.GenSpec(
        num_identities=250, items_per_identity=8, seed=8, **spec))
    is_query = np.arange(len(people)) % 16 < 8
    sets = {"queries": people.subset(np.flatnonzero(is_query)),
            "gallery": people.subset(np.flatnonzero(~is_query)),
            "distractors": sampling.LabeledDataset(
                others.features, others.pids + 250, others.cams,
                others.item_ids + len(people))}
    paths = {name: os.path.join(out, f"{name}.csv") for name in sets}
    for name, dataset in sets.items():
        sampling.write_dataset_csv(paths[name], dataset)
    return paths


def eval_reports(checkpoint: str, out: str) -> list[str]:
    """The lines of `evaluate` with `checkpoint` on `eval_sets`, run plain
    and with each of three flags."""
    paths = eval_sets(out)
    runs = {"plain": [], "multi-query": ["--multi-query"],
            "no-camera-filter": ["--no-camera-filter"],
            "distractors": ["--distractors", paths["distractors"]]}
    lines = []
    for name, flags in runs.items():
        run_dir = os.path.join(out, "eval", name)
        argv = ["evaluate", "--checkpoint", checkpoint,
                "--queries", paths["queries"], "--gallery", paths["gallery"],
                *flags, "--out", run_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != cli.EXIT_OK:
                raise SystemExit(f"tripletkit evaluate {name} failed")
        report = os.path.join(run_dir, "eval_report.json")
        lines.append(f"{digest(report)}  eval/{name}/eval_report.json")
    return lines


def main() -> None:
    runs = (("", training.benchmark_config,
             training.default_benchmark_sets()[0]),
            ("paper/", paper_config, paper_set()))
    with tempfile.TemporaryDirectory() as out:
        for prefix, config, train_set in runs:
            for loss in losses.LOSS_NAMES:
                for margin in MARGINS:
                    cfg = config(loss, losses.parse_margin(margin))
                    print(*train_files(f"{prefix}{loss}/{margin}", cfg,
                                       train_set, out), sep="\n", flush=True)
        print(bench_losses_csv(out))
        print(*eval_reports(os.path.join(out, "batch_hard/soft",
                                         "checkpoint.json"), out), sep="\n")


if __name__ == "__main__":
    main()
