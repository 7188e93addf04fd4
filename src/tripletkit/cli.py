"""Command-line entry point: datagen, train, evaluate, bench-losses.

Exit codes: 0 success, 2 usage/config error, 3 runtime data error,
4 training aborted (collapse alarm or non-finite loss).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import datagen, diagnostics, evalkit, losses, numcore, optim, sampling, training

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COLLAPSE = 4

BENCH_MARGINS = ("0.1", "0.2", "0.5", "1.0", "soft")


def int_list(text: str) -> list[int]:
    """Comma-separated integers, as `--widths` takes them."""
    return [int(v) for v in text.split(",")]


def int_tuple(text: str) -> tuple[int, ...]:
    """Comma-separated integers, as `--cmc-ranks` takes them."""
    return tuple(int_list(text))


def _add_command(sub, name: str, run, summary: str) -> argparse.ArgumentParser:
    """A command's parser and the flags all commands take. A flag that fills
    a config field stores under its name only when given: no default here."""
    p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
    p.set_defaults(run=run)
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--out", "-o", default=".", help="output directory")
    return p


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The dataset and training-run flags `train` and `bench-losses` share."""
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--seed", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--B", type=int)
    p.add_argument("--widths", dest="layer_widths", type=int_list,
                   help="comma-separated layer widths, input first (the "
                        "data's feature width replaces the first)")
    p.add_argument("--eps0", type=float)
    p.add_argument("--t0", type=int)
    p.add_argument("--t1", type=int)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tripletkit")
    sub = top.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "datagen", cmd_datagen,
                     "generate a synthetic identity dataset")
    p.add_argument("--seed", type=int)
    p.add_argument("--ids", dest="num_identities", type=int, required=True)
    p.add_argument("--per-id", dest="items_per_identity", type=int, required=True)
    p.add_argument("--dim", dest="feature_dim", type=int, required=True)
    p.add_argument("--cameras", dest="num_cameras", type=int)
    p.add_argument("--identity-spread", type=float)
    p.add_argument("--intra-spread", type=float)
    p.add_argument("--outlier-rate", type=float)
    p.add_argument("--name", default="train")

    p = _add_command(sub, "train", cmd_train, "train an embedding model")
    _add_run_flags(p)
    p.add_argument("--loss", choices=losses.LOSS_NAMES)
    p.add_argument("--margin", help="'soft' or a nonnegative real")
    p.add_argument("--metric", choices=losses.METRICS)
    p.add_argument("--ohm-sample-fraction", type=float)
    p.add_argument("--ohm-refresh-every", type=int)

    p = _add_command(sub, "evaluate", cmd_evaluate, "evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--multi-query", dest="mode", action="store_const",
                   const="multi_query")
    p.add_argument("--no-camera-filter", dest="exclude_same_camera_same_id",
                   action="store_false")
    p.add_argument("--cmc-ranks", type=int_tuple)
    p.add_argument("--distractors", default=None,
                   help="extra gallery CSV, identities disjoint from queries")

    p = _add_command(sub, "bench-losses", cmd_bench_losses,
                     "train/evaluate a loss x margin grid")
    _add_run_flags(p)
    p.add_argument("--losses", default="batch_hard,batch_all",
                   help="comma-separated subset of the loss enumeration")
    p.add_argument("--margins", default=",".join(BENCH_MARGINS))
    p.add_argument("--val-fraction", type=float, default=0.3)
    return top


def _config_flags(path: str, parser: argparse.ArgumentParser,
                  command: str) -> list[str]:
    """A JSON config file's keys as the flags of `command` they name
    (`per_id` or `per-id` is `--per-id`; `true` sets a switch, `false`
    leaves it off, a list is comma-joined), for `parser` to check as it
    checks the command line. `null`, or `false` for a flag that takes a
    value, fails."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as exc:     # not UTF-8 JSON
            raise ValueError(f"{path}: not a JSON config file: {exc}") \
                from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config file must hold a JSON object")
    sub = next(a for a in parser._actions if isinstance(
        a, argparse._SubParsersAction)).choices.get(command)
    switches = {flag for a in getattr(sub, "_actions", ()) if a.nargs == 0
                for flag in a.option_strings}
    flags = []
    for key, value in doc.items():
        flag = "--" + key.replace("_", "-")
        if value is None or (value is False and flag not in switches):
            raise ValueError(f"{path}: invalid value {json.dumps(value)} "
                             f"for key {key!r}")
        if value is True:
            flags.append(flag)
        elif value is not False:
            if isinstance(value, list):
                value = ",".join(map(str, value))
            flags.append(f"{flag}={value}")
    return flags


def _given(args: argparse.Namespace, cls) -> dict:
    """The fields of dataclass `cls` that the given flags set."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
            if hasattr(args, f.name)}


def _run_config(args: argparse.Namespace) -> training.RunConfig:
    """The run the given flags describe."""
    fields = _given(args, training.RunConfig)
    if "margin" in fields:
        fields["margin"] = losses.parse_margin(fields["margin"])
    return training.RunConfig(schedule=dataclasses.replace(
        training.RunConfig().schedule, **_given(args, optim.Schedule)),
        **fields)


def cmd_datagen(args) -> int:
    spec = datagen.GenSpec(**_given(args, datagen.GenSpec))
    csv_path, json_path = datagen.write_generated(args.out, spec, args.name)
    print(f"wrote {csv_path} and {json_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _run_config(args)
    dataset = sampling.read_dataset_csv(args.data)
    os.makedirs(args.out, exist_ok=True)
    log_path = os.path.join(args.out, "train_log.csv")
    ckpt_path = os.path.join(args.out, "checkpoint.json")
    with diagnostics.TrainLogWriter(log_path) as writer:
        try:
            result = training.train(cfg, dataset, writer)
        except training.CollapseError as exc:
            print(f"aborted: {exc}", file=sys.stderr)
            return EXIT_COLLAPSE
    numcore.save_checkpoint(ckpt_path, result.params,
                            result.state.to_dict())
    print(f"wrote {ckpt_path} and {log_path}")
    return EXIT_OK


def _print_eval(tag: str, result: evalkit.EvalResult) -> None:
    ranks = "".join(f" rank-{k}={v:.4f}" for k, v in result.cmc.items())
    print(f"{tag}mAP={result.map:.4f}{ranks} "
          f"(queries={result.num_queries}, skipped={result.num_skipped})")


def cmd_evaluate(args) -> int:
    try:
        protocol = evalkit.EvalProtocol(**_given(args, evalkit.EvalProtocol))
    except evalkit.ProtocolError as exc:     # a bad flag, not bad data
        raise ValueError(f"--cmc-ranks: {exc}") from None
    params, _ = numcore.load_checkpoint(args.checkpoint)
    paths = {"queries": args.queries, "gallery": args.gallery,
             "distractors": args.distractors}
    data = {name: sampling.read_dataset_csv(path)
            for name, path in paths.items() if path}
    for name, dataset in data.items():
        if dataset.feature_dim != params.input_dim:
            raise evalkit.ProtocolError(
                f"{name} feature width {dataset.feature_dim} does not match "
                f"checkpoint input width {params.input_dim}")
    if args.distractors:
        evalkit.check_distractor_identities(data["distractors"].pids,
                                            data["queries"].pids)
    os.makedirs(args.out, exist_ok=True)
    q_emb = training.embed_dataset(params, data["queries"])
    g_emb = training.embed_dataset(params, data["gallery"])
    result = evalkit.evaluate(q_emb, g_emb, protocol)
    doc = result.to_dict(protocol)
    if args.distractors:
        d_emb = training.embed_dataset(params, data["distractors"])
        injected = evalkit.inject_distractors(g_emb, d_emb, q_emb.pids)
        after = evalkit.evaluate(q_emb, injected, protocol)
        doc["with_distractors"] = after.to_dict()
        _print_eval("pre-distractor  ", result)
        _print_eval("post-distractor ", after)
    else:
        _print_eval("", result)
    report_path = os.path.join(args.out, "eval_report.json")
    with open(report_path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    print(f"wrote {report_path}")
    return EXIT_OK


def _cell_config(loss_name: str, margin_text: str,
                 base_cfg: training.RunConfig) -> training.RunConfig:
    return dataclasses.replace(base_cfg, loss=loss_name,
                               margin=losses.parse_margin(margin_text))


def run_bench_cell(loss_name: str, margin_text: str, train_set, val_set,
                   base_cfg: training.RunConfig) -> dict:
    """Train and evaluate one grid cell; failures are reported, not raised."""
    cfg = _cell_config(loss_name, margin_text, base_cfg)
    cell = {"loss": loss_name, "margin": margin_text,
            "map": "", "rank1": "", "status": "ok"}
    try:
        result = training.train(cfg, train_set)
        ev = training.validation_map(result.params, val_set)
        cell["map"] = f"{ev.map:.4f}"
        cell["rank1"] = f"{ev.cmc[1]:.4f}"
    except training.CollapseError:
        cell["status"] = "*"        # trapped in a bad optimum
    except Exception as exc:        # grid continues past any cell crash
        cell["status"] = f"failed: {exc}"
    return cell


def cmd_bench_losses(args) -> int:
    loss_names = [s.strip() for s in args.losses.split(",")]
    margins = [s.strip() for s in args.margins.split(",")]
    for name in loss_names:
        if name not in losses.LOSS_NAMES:
            raise ValueError(f"--losses: unknown loss {name!r}")
    for text in margins:
        try:
            losses.parse_margin(text)
        except ValueError as exc:
            raise ValueError(f"--margins: {exc}") from None
    if not 0.0 < args.val_fraction < 1.0:
        raise ValueError(f"--val-fraction must be in (0, 1), got "
                         f"{args.val_fraction}")
    args.loss = loss_names[0]   # the shared flags are checked for this loss
    base = _run_config(args)
    # cells of one grid share every field but loss and margin, so a cell
    # whose loss and margin equal an earlier cell's reports that cell's run;
    # every cell's config is built, and so checked, before any data is read
    grid = [(ln, mt, (ln, _cell_config(ln, mt, base).margin))
            for ln in loss_names for mt in margins]
    dataset = sampling.read_dataset_csv(args.data)
    train_set, val_set = training.identity_disjoint_split(
        dataset, args.val_fraction, base.seed)
    index = train_set.identity_index()
    if index.identities < 2 or len(index.counts) == 0:    # no loss can train
        raise sampling.SamplingError(
            "every loss needs 2 training identities and one with 2 rows; "
            f"the split leaves {index.identities} identities, "
            f"{len(index.counts)} with 2 or more rows")
    os.makedirs(args.out, exist_ok=True)
    trained, cells = {}, []
    for ln, mt, key in grid:
        if key not in trained:
            trained[key] = run_bench_cell(ln, mt, train_set, val_set, base)
        cells.append({**trained[key], "loss": ln, "margin": mt})

    csv_path = os.path.join(args.out, "bench_losses.csv")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as f:
        w = csv.DictWriter(f, fieldnames=["loss", "margin", "map", "rank1",
                                          "status"], lineterminator="\n")
        w.writeheader()
        w.writerows(cells)
    print(f"{'loss':<16}{'margin':<8}{'mAP':<10}{'rank-1':<10}status")
    for c in cells:
        print(f"{c['loss']:<16}{c['margin']:<8}{c['map']:<10}{c['rank1']:<10}"
              f"{c['status']}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        # config flags go first, so flags given on the command line win
        config = argparse.ArgumentParser(prog="tripletkit", add_help=False)
        config.add_argument("--config")
        path = config.parse_known_args(argv[1:])[0].config
        parser = build_parser()
        if path:
            argv = [argv[0], *_config_flags(path, parser, argv[0]), *argv[1:]]
        args = parser.parse_args(argv)
        return args.run(args)
    # data errors first: all but OSError are ValueErrors
    except (OSError, sampling.SamplingError, evalkit.ProtocolError,
            numcore.CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
