import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tripletkit import (cli, datagen, diagnostics, evalkit, losses, numcore,
                        optim, training)
from tripletkit.sampling import LabeledDataset, read_dataset_csv, write_dataset_csv


def make_data(tmp_path, name="train", ids=6, per_id=4, dim=5, outlier="0.0",
              seed=0):
    rc = cli.main(["datagen", "--ids", str(ids), "--per-id", str(per_id),
                   "--dim", str(dim), "--outlier-rate", outlier,
                   "--seed", str(seed), "--name", name,
                   "-o", str(tmp_path)])
    assert rc == cli.EXIT_OK
    return os.path.join(str(tmp_path), f"{name}.csv")


def quick_train(tmp_path, data, extra=()):
    out = os.path.join(str(tmp_path), "run")
    rc = cli.main(["train", "--data", data, "--widths", "5,8,4",
                   "--P", "3", "--K", "2", "--t0", "20", "--t1", "40",
                   "-o", out, *extra])
    return rc, out


def write_nonfinite(tmp_path, data, value):
    """Copy of the dataset CSV with one feature of line 3 set to `value`."""
    with open(data) as f:
        lines = f.read().splitlines()
    fields = lines[2].split(",")
    fields[4] = value
    lines[2] = ",".join(fields)
    bad = tmp_path / "nonfinite.csv"
    bad.write_text("\n".join(lines) + "\n")
    return str(bad)


class TestDatagen:
    def test_writes_csv_and_meta(self, tmp_path):
        csv_path = make_data(tmp_path)
        assert os.path.exists(csv_path)
        meta = json.loads(Path(csv_path[:-4] + "_spec.json").read_text())
        assert meta["num_identities"] == 6
        ds = read_dataset_csv(csv_path)
        assert len(ds) == 24 and ds.feature_dim == 5

    def test_deterministic_across_invocations(self, tmp_path):
        a = make_data(tmp_path, name="a", seed=3)
        b = make_data(tmp_path, name="b", seed=3)
        da, db = read_dataset_csv(a), read_dataset_csv(b)
        assert np.array_equal(da.features, db.features)
        assert np.array_equal(da.pids, db.pids)

    def test_missing_required_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["datagen", "--ids", "4", "-o", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, field", [("--cameras", "num_cameras"),
                                             ("--dim", "feature_dim")])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_width_or_cameras_exits_2(self, tmp_path, capsys,
                                                  flag, field, value):
        args = {"--ids": "4", "--per-id": "3", "--dim": "5", flag: value}
        rc = cli.main(["datagen", *(v for kv in args.items() for v in kv),
                       "-o", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not (tmp_path / "train.csv").exists()

    def test_camera_count_past_int64_exits_2(self, tmp_path, capsys):
        rc = cli.main(["datagen", "--ids", "4", "--per-id", "4", "--dim", "2",
                       "--cameras", str(10 ** 26), "-o", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert "num_cameras" in capsys.readouterr().err
        assert not (tmp_path / "train.csv").exists()


class TestTrain:
    def test_writes_checkpoint_and_log(self, tmp_path):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        assert rc == cli.EXIT_OK
        assert os.path.exists(os.path.join(out, "checkpoint.json"))
        log = Path(out, "train_log.csv").read_text().splitlines()
        assert log[0].startswith("iter,loss_mean,loss_p5,active_frac,")
        assert len(log) == 41  # header + one record per iteration

    def test_unknown_loss_exits_2(self, tmp_path):
        data = make_data(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--data", data, "--loss", "bogus"])
        assert exc.value.code == 2

    def test_bad_margin_exits_2(self, tmp_path):
        data = make_data(tmp_path)
        rc, _ = quick_train(tmp_path, data, extra=("--margin", "-1"))
        assert rc == cli.EXIT_USAGE

    def test_nonfinite_margin_exits_2(self, tmp_path, capsys):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data, extra=("--margin", "nan"))
        assert rc == cli.EXIT_USAGE
        assert "margin 'nan'" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("fraction", ["0", "2"])
    def test_bad_ohm_sample_fraction_exits_2(self, tmp_path, fraction):
        data = make_data(tmp_path)
        rc, _ = quick_train(tmp_path, data, extra=(
            "--loss", "triplet_ohm", "--ohm-sample-fraction", fraction))
        assert rc == cli.EXIT_USAGE

    def test_missing_data_file_exits_3(self, tmp_path):
        rc = cli.main(["train", "--data", str(tmp_path / "nope.csv"),
                       "-o", str(tmp_path)])
        assert rc == cli.EXIT_DATA

    def test_collapse_exits_4(self, tmp_path, monkeypatch):
        data = make_data(tmp_path)

        def boom(cfg, dataset, writer=None):
            raise training.CollapseError(17)

        monkeypatch.setattr(training, "train", boom)
        rc, _ = quick_train(tmp_path, data)
        assert rc == cli.EXIT_COLLAPSE

    def test_config_file_merge(self, tmp_path):
        data = make_data(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"widths": "5,6,3", "t0": 10,
                                        "t1": 20, "P": 3, "K": 2}))
        out = os.path.join(str(tmp_path), "run")
        rc = cli.main(["train", "--data", data, "--config", str(cfg_path),
                       "-o", out])
        assert rc == cli.EXIT_OK
        ckpt = json.loads(Path(out, "checkpoint.json").read_text())
        assert ckpt["layer_widths"] == [5, 6, 3]

    def test_flag_overrides_config(self, tmp_path):
        data = make_data(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"t1": 9999}))
        out = os.path.join(str(tmp_path), "run")
        rc = cli.main(["train", "--data", data, "--config", str(cfg_path),
                       "--widths", "5,8,4", "--P", "3", "--K", "2",
                       "--t0", "20", "--t1", "40", "-o", out])
        assert rc == cli.EXIT_OK
        log = Path(out, "train_log.csv").read_text().splitlines()
        assert len(log) == 41

    def test_zero_ohm_refresh_exits_2(self, tmp_path, capsys):
        data = make_data(tmp_path)
        rc, _ = quick_train(tmp_path, data, extra=(
            "--loss", "triplet_ohm", "--ohm-refresh-every", "0"))
        assert rc == cli.EXIT_USAGE
        assert "ohm_refresh_every" in capsys.readouterr().err

    def test_explicit_flag_at_default_beats_config(self, tmp_path):
        data = make_data(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 5}))
        rc, out = quick_train(tmp_path, data, extra=(
            "--config", str(cfg_path), "--seed", "0"))
        assert rc == cli.EXIT_OK
        with open(os.path.join(out, "checkpoint.json")) as f:
            assert json.load(f)["seed"] == 0

    def test_config_values_parse_as_flags(self, tmp_path):
        data = make_data(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"P": "3", "K": 2, "widths": [5, 6, 3],
                                        "t0": 10, "t1": 20, "data": data}))
        out = os.path.join(str(tmp_path), "run")
        rc = cli.main(["train", "--config", str(cfg_path), "-o", out])
        assert rc == cli.EXIT_OK
        with open(os.path.join(out, "checkpoint.json")) as f:
            assert json.load(f)["layer_widths"] == [5, 6, 3]

    @pytest.mark.parametrize("doc, named", [({"t11": 5}, "--t11"),
                                            ({"P": 2.5}, "--P"),
                                            ({"averaging": "nonzero"},
                                             "--averaging"),
                                            ({"init_scale": 2}, "--init-scale")])
    def test_bad_config_key_or_value_exits_2(self, tmp_path, capsys, doc,
                                             named):
        data = make_data(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            quick_train(tmp_path, data, extra=("--config", str(cfg_path)))
        assert exc.value.code == cli.EXIT_USAGE
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--averaging", "nonzero"),
                                             ("--init-scale", "2")])
    def test_removed_flag_exits_2(self, tmp_path, capsys, flag, value):
        data = make_data(tmp_path)
        with pytest.raises(SystemExit) as exc:
            quick_train(tmp_path, data, extra=(flag, value))
        assert exc.value.code == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("loss", losses.LOSS_NAMES)
    def test_nonfinite_loss_exits_4_without_checkpoint(self, tmp_path,
                                                       capsys, loss):
        """Every loss diverges at this rate. A NaN term must count as
        active, or nonzero averaging reports a loss of 0; `triplet_ohm`,
        mining again every step, must not warn from the mining."""
        data = make_data(tmp_path)
        capsys.readouterr()
        mining = ("--ohm-refresh-every", "1", "--ohm-sample-fraction", "1.0")
        rc, out = quick_train(tmp_path, data, extra=(
            "--eps0", "1e300", "--loss", loss,
            *(mining if loss == "triplet_ohm" else ())))
        assert rc == cli.EXIT_COLLAPSE
        assert "non-finite loss at iteration" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "checkpoint.json"))

    def test_collapse_prints_the_alarm_values(self, tmp_path):
        """OHM stress seed 0 through the installed command: exit 4 and the
        values behind the alarm, as its train log shows them, on stderr."""
        data = str(tmp_path / "stress.csv")
        write_dataset_csv(data, training.ohm_stress_dataset())
        cfg = training.ohm_stress_config("triplet_ohm", 0)
        out = tmp_path / "run"
        src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
        done = subprocess.run(
            [sys.executable, "-m", "tripletkit.cli", "train", "--data", data,
             "--loss", "triplet_ohm", "--margin", str(cfg.margin.m),
             "--metric", cfg.metric, "--B", str(cfg.B),
             "--ohm-sample-fraction", str(cfg.ohm_sample_fraction),
             "--ohm-refresh-every", str(cfg.ohm_refresh_every),
             "--widths", ",".join(map(str, cfg.layer_widths)),
             "--P", str(cfg.P), "--K", str(cfg.K), "--seed", "0",
             "--eps0", str(cfg.schedule.eps0), "--t0", str(cfg.schedule.t0),
             "--t1", str(cfg.schedule.t1), "-o", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == cli.EXIT_COLLAPSE
        assert "Traceback" not in done.stderr
        with open(out / "train_log.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        window = rows[-diagnostics.COLLAPSE_WINDOW:]
        initial = float(rows[0]["dist_p50"])
        want = diagnostics.AlarmTrigger(
            initial, max(float(r["dist_p50"]) for r in window) / initial,
            min(float(r["active_frac"]) for r in window), len(window))
        assert done.stderr == \
            f"aborted: collapse alarm fired at iteration 700: {want}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_exits_3(self, tmp_path, capsys, value):
        bad = write_nonfinite(tmp_path, make_data(tmp_path), value)
        capsys.readouterr()
        rc, out = quick_train(tmp_path, bad)
        assert rc == cli.EXIT_DATA
        assert f"{bad}:3: non-finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "checkpoint.json"))


SHARED_FLAGS = ["--P", "3", "--K", "2", "--B", "5", "--widths", "5,7,4",
                "--eps0", "0.002", "--t0", "11", "--t1", "13", "--seed", "9"]
SHARED_CONFIG = training.RunConfig(P=3, K=2, B=5, layer_widths=[5, 7, 4],
                                   schedule=optim.Schedule(0.002, 11, 13),
                                   seed=9)
TRAIN_FLAGS = ["--loss", "lifted", "--margin", "0.3", "--metric",
               "squared_euclidean", "--ohm-sample-fraction", "0.5",
               "--ohm-refresh-every", "7"]


@pytest.mark.parametrize("command, flags, want", [
    ("train", SHARED_FLAGS, SHARED_CONFIG),
    ("bench-losses", SHARED_FLAGS, SHARED_CONFIG),
    ("train", [], training.RunConfig()),
    ("bench-losses", [], training.RunConfig()),
    ("train", SHARED_FLAGS + TRAIN_FLAGS, dataclasses.replace(
        SHARED_CONFIG, loss="lifted", margin=losses.MarginMode.hard(0.3),
        metric="squared_euclidean", ohm_sample_fraction=0.5,
        ohm_refresh_every=7)),
], ids=["train", "bench-losses", "train-defaults", "bench-losses-defaults",
        "train-only-flags"])
def test_shared_run_flags_reach_run_config(tmp_path, monkeypatch, command,
                                           flags, want):
    """Each flag sets its field; a field no flag sets keeps `RunConfig`'s
    default (a grid cell's loss and margin come from the grid)."""
    data = make_data(tmp_path, ids=8)
    seen = []

    def capture(cfg, dataset, writer=None):
        seen.append(cfg)
        raise training.CollapseError(1)

    monkeypatch.setattr(training, "train", capture)
    cli.main([command, "--data", data, *flags, "-o", str(tmp_path / "out")])
    assert seen
    for cfg in seen:
        if command == "bench-losses":
            cfg = dataclasses.replace(cfg, loss=want.loss, margin=want.margin)
        assert cfg == want


@pytest.mark.parametrize("flags, want", [
    ([], datagen.GenSpec(num_identities=4, items_per_identity=3,
                         feature_dim=2)),
    (["--cameras", "3", "--identity-spread", "2.5", "--intra-spread", "0.25",
      "--outlier-rate", "0.1", "--seed", "6"],
     datagen.GenSpec(num_identities=4, items_per_identity=3, feature_dim=2,
                     identity_spread=2.5, intra_spread=0.25, num_cameras=3,
                     outlier_rate=0.1, seed=6)),
], ids=["defaults", "every-flag"])
def test_datagen_flags_reach_gen_spec(tmp_path, monkeypatch, flags, want):
    seen = []
    monkeypatch.setattr(datagen, "write_generated",
                        lambda out, spec, name: seen.append(spec) or ("", ""))
    assert cli.main(["datagen", "--ids", "4", "--per-id", "3", "--dim", "2",
                     *flags, "-o", str(tmp_path)]) == cli.EXIT_OK
    assert seen == [want]


@pytest.mark.parametrize("flags, want", [
    ([], evalkit.EvalProtocol()),
    (["--multi-query", "--no-camera-filter", "--cmc-ranks", "1,2"],
     evalkit.EvalProtocol(mode="multi_query",
                          exclude_same_camera_same_id=False,
                          cmc_ranks=(1, 2))),
], ids=["defaults", "every-flag"])
def test_evaluate_flags_reach_eval_protocol(tmp_path, monkeypatch, flags,
                                            want):
    data = make_data(tmp_path)
    rc, out = quick_train(tmp_path, data)
    seen = []

    def capture(queries, gallery, protocol):
        seen.append(protocol)
        raise evalkit.ProtocolError("captured")

    monkeypatch.setattr(evalkit, "evaluate", capture)
    assert cli.main(["evaluate", "--checkpoint",
                     os.path.join(out, "checkpoint.json"), "--queries", data,
                     "--gallery", data, *flags, "-o", out]) == cli.EXIT_DATA
    assert seen == [want]


def test_evaluate_takes_no_seed(tmp_path, capsys):
    """`evaluate` draws no random numbers, so `--seed` is an unknown flag."""
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--checkpoint", missing, "--queries", missing,
                  "--gallery", missing, "--seed", "1"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--seed" in capsys.readouterr().err


class TestEvaluate:
    def test_end_to_end(self, tmp_path):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        assert rc == cli.EXIT_OK
        ckpt = os.path.join(out, "checkpoint.json")
        rc = cli.main(["evaluate", "--checkpoint", ckpt, "--queries", data,
                       "--gallery", data, "-o", out])
        assert rc == cli.EXIT_OK
        report = json.loads(Path(out, "eval_report.json").read_text())
        assert 0.0 <= report["map"] <= 1.0
        assert "cmc" in report

    def test_config_true_sets_switch(self, tmp_path):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        cfg_path = tmp_path / "eval.json"
        cfg_path.write_text(json.dumps({"multi_query": True,
                                        "no-camera-filter": False}))
        rc = cli.main(["evaluate", "--config", str(cfg_path),
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", data, "--gallery", data, "-o", out])
        assert rc == cli.EXIT_OK
        with open(os.path.join(out, "eval_report.json")) as f:
            report = json.load(f)
        assert report["protocol"]["mode"] == "multi_query"
        assert report["protocol"]["exclude_same_camera_same_id"]

    def test_config_null_exits_2_naming_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "eval.json"
        cfg_path.write_text(json.dumps({"distractors": None}))
        missing = str(tmp_path / "missing.csv")
        rc = cli.main(["evaluate", "--config", str(cfg_path),
                       "--checkpoint", missing, "--queries", missing,
                       "--gallery", missing, "-o", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert "'distractors'" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key", [("train", "t1"),
                                             ("evaluate", "distractors")])
    def test_config_false_for_a_value_flag_exits_2_naming_key(
            self, tmp_path, capsys, command, key):
        """`false` leaves a switch off but is no value for `--t1` or
        `--distractors`; dropping it would run on, here into a missing
        file (exit 3)."""
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({key: False}))
        missing = str(tmp_path / "missing.csv")
        files = {"train": ["--data", missing],
                 "evaluate": ["--checkpoint", missing, "--queries", missing,
                              "--gallery", missing]}
        rc = cli.main([command, "--config", str(cfg_path), *files[command],
                       "-o", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert f"invalid value false for key '{key}'" in \
            capsys.readouterr().err

    def test_dim_mismatch_exits_3(self, tmp_path):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        other = make_data(tmp_path, name="wide", dim=7)
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", other, "--gallery", other, "-o", out])
        assert rc == cli.EXIT_DATA

    @pytest.mark.parametrize("wide", ["gallery", "distractors"])
    def test_dim_mismatch_exits_3_naming_the_csv(self, tmp_path, capsys,
                                                 wide):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        other = make_data(tmp_path, name="wide", dim=7, ids=8, seed=99)
        paths = {"gallery": data, "distractors": data, wide: other}
        capsys.readouterr()
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", data, "--gallery", paths["gallery"],
                       "--distractors", paths["distractors"], "-o", out])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: {wide} feature width 7 does not match checkpoint "
            "input width 5\n")
        assert not os.path.exists(os.path.join(out, "eval_report.json"))

    def test_distractors_reported(self, tmp_path):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        distract = make_data(tmp_path, name="extra", ids=8, seed=99)
        ds = read_dataset_csv(distract)
        write_dataset_csv(distract, LabeledDataset(
            ds.features, ds.pids + 100, ds.cams, ds.item_ids))
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", data, "--gallery", data,
                       "--distractors", distract, "-o", out])
        assert rc == cli.EXIT_OK
        report = json.loads(Path(out, "eval_report.json").read_text())
        assert report["with_distractors"]["map"] <= report["map"] + 1e-12

    def test_clashing_distractors_exit_3_before_ranking(self, tmp_path,
                                                         capsys, monkeypatch):
        """Distractor identities are checked against the queries' once the
        CSVs are read, before the first `evaluate` ranks the gallery."""
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        calls = []
        monkeypatch.setattr(evalkit, "evaluate",
                            lambda *args: calls.append(args))
        capsys.readouterr()
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", data, "--gallery", data,
                       "--distractors", data, "-o", out])
        assert rc == cli.EXIT_DATA
        assert "distractor identities collide with queries" in \
            capsys.readouterr().err
        assert calls == []
        assert not os.path.exists(os.path.join(out, "eval_report.json"))

    @pytest.mark.parametrize("empty", ["queries", "gallery"])
    def test_empty_csv_exits_3(self, tmp_path, capsys, empty):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        header_only = tmp_path / "empty.csv"
        with open(data) as f:
            header_only.write_text(f.readline())
        assert read_dataset_csv(str(header_only)).features.shape == (0, 5)
        paths = {"queries": data, "gallery": data, empty: str(header_only)}
        capsys.readouterr()
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", paths["queries"],
                       "--gallery", paths["gallery"], "-o", out])
        assert rc == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_value_exits_3(self, tmp_path, capsys):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        lines = Path(data).read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "abc"
        lines[2] = ",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", str(bad), "--gallery", data, "-o", out])
        assert rc == cli.EXIT_DATA
        assert f"{bad}:3:" in capsys.readouterr().err

    def test_nonfinite_feature_exits_3(self, tmp_path, capsys):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        bad = write_nonfinite(tmp_path, data, "nan")
        capsys.readouterr()
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", data, "--gallery", bad, "-o", out])
        assert rc == cli.EXIT_DATA
        assert f"{bad}:3: non-finite" in capsys.readouterr().err

    def test_zero_byte_csv_exits_3(self, tmp_path, capsys):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        blank = tmp_path / "blank.csv"
        blank.write_text("")
        capsys.readouterr()
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", str(blank), "--gallery", data, "-o", out])
        assert rc == cli.EXIT_DATA
        assert "unexpected CSV header" in capsys.readouterr().err

    def test_prints_the_asked_cmc_ranks(self, tmp_path, capsys):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        rc = cli.main(["evaluate", "--checkpoint",
                       os.path.join(out, "checkpoint.json"), "--queries",
                       data, "--gallery", data, "--cmc-ranks", "1,100000",
                       "-o", out])
        assert rc == cli.EXIT_OK
        printed = capsys.readouterr().out
        assert " rank-1=" in printed and " rank-100000=1.0000 " in printed
        assert "rank-5" not in printed and "nan" not in printed

    def test_repeated_cmc_rank_exits_2_naming_flag(self, tmp_path, capsys):
        """`1,1` would list rank 1 twice in the report's protocol but
        report it once; it is refused before any data is read."""
        missing = str(tmp_path / "missing.csv")
        rc = cli.main(["evaluate", "--checkpoint", missing, "--queries",
                       missing, "--gallery", missing, "--cmc-ranks", "1,1",
                       "-o", str(tmp_path / "out")])
        assert rc == cli.EXIT_USAGE
        assert "--cmc-ranks" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_cmc_ranks_exits_2(self, tmp_path):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", data, "--gallery", data,
                       "--cmc-ranks", "5,1", "-o", out])
        assert rc == cli.EXIT_USAGE


class TestBenchLosses:
    def test_grid_csv(self, tmp_path):
        data = make_data(tmp_path, ids=8)
        out = os.path.join(str(tmp_path), "bench")
        rc = cli.main(["bench-losses", "--data", data,
                       "--losses", "batch_hard,triplet",
                       "--margins", "0.2,soft", "--widths", "5,8,4",
                       "--P", "3", "--K", "2", "--B", "4",
                       "--t0", "15", "--t1", "30", "-o", out])
        assert rc == cli.EXIT_OK
        rows = Path(out, "bench_losses.csv").read_text().splitlines()
        assert rows[0] == "loss,margin,map,rank1,status"
        assert len(rows) == 5
        for row in rows[1:]:
            assert row.endswith(",ok")

    def test_each_distinct_run_trains_once(self, tmp_path, monkeypatch):
        # lmnn reads only the inner margin, which is 0.2 under soft as
        # under hinge 0.2; the lifted losses read the outer clamp too, and
        # the mined triplets' miner reads the whole margin
        data = make_data(tmp_path, ids=8)
        trained = []
        real_train = training.train

        def counted(cfg, *args, **kwargs):
            trained.append((cfg.loss, cfg.margin))
            return real_train(cfg, *args, **kwargs)

        monkeypatch.setattr(training, "train", counted)
        out = tmp_path / "bench"
        rc = cli.main(["bench-losses", "--data", data,
                       "--losses", "lmnn,lifted,triplet_ohm,batch_hard",
                       "--margins", "0.2,soft,0.20,1.0", "--widths", "5,8,4",
                       "--P", "3", "--K", "2", "--B", "4",
                       "--t0", "4", "--t1", "8", "-o", str(out)])
        assert rc == cli.EXIT_OK
        hard, soft = losses.MarginMode.hard, losses.MarginMode.soft
        assert trained == [
            ("lmnn", hard(0.2)), ("lmnn", hard(1.0)),
            ("lifted", hard(0.2)), ("lifted", soft()), ("lifted", hard(1.0)),
            ("triplet_ohm", hard(0.2)), ("triplet_ohm", soft()),
            ("triplet_ohm", hard(1.0)),
            ("batch_hard", hard(0.2)), ("batch_hard", soft()),
            ("batch_hard", hard(1.0))]
        rows = (out / "bench_losses.csv").read_text().splitlines()
        assert len(rows) == 17
        by_cell = {tuple(r.split(",")[:2]): r.split(",")[2:] for r in rows[1:]}
        for loss in ("lmnn", "lifted", "triplet_ohm", "batch_hard"):
            assert by_cell[loss, "0.20"] == by_cell[loss, "0.2"]
        assert by_cell["lmnn", "soft"] == by_cell["lmnn", "0.2"]
        assert all(status == "ok" for *_, status in by_cell.values())

    def test_unknown_loss_exits_2(self, tmp_path):
        data = make_data(tmp_path)
        rc = cli.main(["bench-losses", "--data", data, "--losses", "bogus",
                       "-o", str(tmp_path)])
        assert rc == cli.EXIT_USAGE

    def test_bad_margin_exits_2_before_training(self, tmp_path, monkeypatch,
                                                capsys):
        data = make_data(tmp_path, ids=8)
        trained = []
        monkeypatch.setattr(training, "train",
                            lambda *a, **k: trained.append(a))
        out = tmp_path / "bench"
        rc = cli.main(["bench-losses", "--data", data, "--losses", "batch_hard",
                       "--margins", "0.2,abc", "-o", str(out)])
        assert rc == cli.EXIT_USAGE
        assert "--margins" in capsys.readouterr().err
        assert trained == []
        assert not (out / "bench_losses.csv").exists()

    def test_nonfinite_margin_exits_2_before_training(self, tmp_path,
                                                      monkeypatch, capsys):
        data = make_data(tmp_path, ids=8)
        trained = []
        monkeypatch.setattr(training, "train",
                            lambda *a, **k: trained.append(a))
        out = tmp_path / "bench"
        rc = cli.main(["bench-losses", "--data", data, "--losses", "batch_hard",
                       "--margins", "0.2,inf", "-o", str(out)])
        assert rc == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "--margins" in err and "margin 'inf'" in err
        assert trained == []
        assert not (out / "bench_losses.csv").exists()

    @pytest.mark.parametrize("fraction", ["1.0", "1.5", "0", "-1"])
    def test_val_fraction_outside_open_unit_interval_exits_2(
            self, tmp_path, monkeypatch, capsys, fraction):
        trained = []
        monkeypatch.setattr(training, "train",
                            lambda *a, **k: trained.append(a))
        # checked before --data is read: a missing file would exit 3
        rc = cli.main(["bench-losses", "--data", str(tmp_path / "absent.csv"),
                       "--losses", "batch_hard", "--val-fraction", fraction,
                       "-o", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert "--val-fraction" in capsys.readouterr().err
        assert trained == []
        assert not (tmp_path / "bench_losses.csv").exists()

    def test_bad_losses_with_missing_data_exits_2(self, tmp_path, capsys):
        rc = cli.main(["bench-losses", "--data", str(tmp_path / "absent.csv"),
                       "--losses", "bogus", "-o", str(tmp_path)])
        assert rc == cli.EXIT_USAGE
        assert "--losses" in capsys.readouterr().err

    def test_every_cell_is_checked_before_any_trains(self, tmp_path,
                                                     monkeypatch, capsys):
        # --B 0 fits batch_hard, which reads no B, but not triplet
        data = make_data(tmp_path, ids=8)
        cells = []
        monkeypatch.setattr(cli, "run_bench_cell",
                            lambda *a, **k: cells.append(a))
        out = tmp_path / "bench"
        rc = cli.main(["bench-losses", "--data", data,
                       "--losses", "batch_hard,triplet", "--margins",
                       "0.2,soft", "--B", "0", "-o", str(out)])
        assert rc == cli.EXIT_USAGE
        assert "B >= 1" in capsys.readouterr().err
        assert cells == []
        assert not (out / "bench_losses.csv").exists()

    def test_shared_flags_are_checked_against_the_grid_losses(self, tmp_path):
        # --P 1 fits no PK loss, but a grid of random triplets reads no P
        data = make_data(tmp_path, ids=8)
        out = tmp_path / "bench"
        rc = cli.main(["bench-losses", "--data", data, "--losses", "triplet",
                       "--margins", "0.2", "--P", "1", "--B", "4",
                       "--widths", "5,8,4", "--t0", "4", "--t1", "8",
                       "-o", str(out)])
        assert rc == cli.EXIT_OK
        rows = (out / "bench_losses.csv").read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("triplet,0.2,") and rows[1].endswith(",ok")

    def test_nonfinite_cell_is_marked_collapsed(self, tmp_path):
        ds = read_dataset_csv(make_data(tmp_path, ids=8))
        train_set, val_set = training.identity_disjoint_split(ds, 0.3, 0)
        base = training.RunConfig(P=3, K=2, layer_widths=[5, 8, 4],
                                  schedule=optim.Schedule(1e300, 5, 10))
        cell = cli.run_bench_cell("batch_hard", "soft", train_set, val_set,
                                  base)
        assert cell["status"] == "*"


def test_unknown_metric_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--data", str(tmp_path / "absent.csv"),
                  "--metric", "cosine"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--metric" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "bench-losses"])
class TestRunFlagsCheckedBeforeData:
    """Checked before --data is read: a missing file would exit 3."""

    def run(self, tmp_path, command, *flags):
        return cli.main([command, "--data", str(tmp_path / "absent.csv"),
                         *flags, "-o", str(tmp_path)])

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_bad_eps0_exits_2(self, tmp_path, capsys, command, value):
        assert self.run(tmp_path, command, "--eps0", value) == cli.EXIT_USAGE
        assert "eps0" in capsys.readouterr().err

    @pytest.mark.parametrize("widths", ["4,0,4", "4,-1", "4"])
    def test_bad_widths_exit_2(self, tmp_path, capsys, command, widths):
        assert self.run(tmp_path, command, "--widths", widths) == \
            cli.EXIT_USAGE
        assert "layer_widths" in capsys.readouterr().err

    def test_non_integer_width_exits_2_naming_flag(self, tmp_path, capsys,
                                                   command):
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, command, "--widths", "4,x,4")
        assert exc.value.code == cli.EXIT_USAGE
        assert "--widths" in capsys.readouterr().err


@pytest.mark.parametrize("flag, field", [("--identity-spread", "identity_spread"),
                                         ("--intra-spread", "intra_spread")])
# 1e308 is finite, but 1e308 times a normal draw past 1.8 overflows
@pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
def test_nonfinite_spread_exits_2(tmp_path, capsys, flag, field, value):
    rc = cli.main(["datagen", "--ids", "4", "--per-id", "3", "--dim", "5",
                   flag, value, "-o", str(tmp_path)])
    assert rc == cli.EXIT_USAGE
    assert field in capsys.readouterr().err
    assert not (tmp_path / "train.csv").exists()


@pytest.mark.parametrize("command", ["datagen", "train", "bench-losses"])
def test_negative_seed_exits_2_naming_it(tmp_path, capsys, command):
    flags = (["--ids", "4", "--per-id", "3", "--dim", "5"]
             if command == "datagen"
             else ["--data", str(tmp_path / "absent.csv")])
    rc = cli.main([command, *flags, "--seed", "-1",
                   "-o", str(tmp_path / "out")])
    assert rc == cli.EXIT_USAGE
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_integer_cmc_rank_exits_2_naming_flag(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    with pytest.raises(SystemExit) as exc:
        cli.main(["evaluate", "--checkpoint", missing, "--queries", missing,
                  "--gallery", missing, "--cmc-ranks", "1,x"])
    assert exc.value.code == cli.EXIT_USAGE
    assert "--cmc-ranks" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "bench-losses"])
def test_out_naming_a_file_exits_3_before_any_work(tmp_path, capsys,
                                                    monkeypatch, command):
    """`--out` is created once the inputs are read, so a file in its
    place fails before anything is trained or ranked."""
    data = make_data(tmp_path, ids=8)
    rc, run = quick_train(tmp_path, data)
    assert rc == cli.EXIT_OK
    called = []
    for module, name in ((training, "train"), (evalkit, "evaluate")):
        def recording(*args, real=getattr(module, name), name=name,
                      **kwargs):
            called.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, recording)
    taken = tmp_path / "taken"
    taken.write_text("")
    flags = {"evaluate": ["--checkpoint", os.path.join(run, "checkpoint.json"),
                          "--queries", data, "--gallery", data],
             "bench-losses": ["--data", data, "--losses", "batch_hard",
                              "--margins", "soft", "--widths", "5,8,4",
                              "--P", "3", "--K", "2", "--t0", "4",
                              "--t1", "8"]}
    rc = cli.main([command, *flags[command], "-o", str(taken)])
    assert rc == cli.EXIT_DATA
    assert "File exists" in capsys.readouterr().err
    assert called == []


class TestCountCaps:
    """Counts past the caps exit 2 naming the flag, before any data is
    read or generated, so these huge values allocate nothing."""

    @pytest.mark.parametrize("command", ["train", "bench-losses"])
    @pytest.mark.parametrize("flag", ["--P", "--K", "--B", "--widths"])
    def test_batch_count_exits_2(self, tmp_path, capsys, command, flag):
        missing = str(tmp_path / "missing.csv")
        value = "16,%d" % 10 ** 12 if flag == "--widths" else str(10 ** 12)
        rc = cli.main([command, "--data", missing, flag, value,
                       "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--ids", "--per-id", "--dim"])
    def test_datagen_count_exits_2(self, tmp_path, capsys, flag):
        counts = {"--ids": "4", "--per-id": "3", "--dim": "5",
                  flag: str(10 ** 12)}
        rc = cli.main(["datagen", *[a for kv in counts.items() for a in kv],
                       "-o", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_USAGE
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestBadCheckpoint:
    def evaluate(self, tmp_path, text):
        data = make_data(tmp_path)
        ckpt = tmp_path / "bad.json"
        ckpt.write_text(text)
        return cli.main(["evaluate", "--checkpoint", str(ckpt), "--queries",
                         data, "--gallery", data, "-o", str(tmp_path)]), ckpt

    def good_doc(self, tmp_path):
        rc, out = quick_train(tmp_path, make_data(tmp_path))
        assert rc == cli.EXIT_OK
        with open(os.path.join(out, "checkpoint.json")) as f:
            return f.read()

    @pytest.mark.parametrize("doc", [{"foo": 1}, [1, 2], "text", None,
                                     {"layers": [1], "slope": 0.3,
                                      "layer_widths": [5, 3]}])
    def test_foreign_document_exits_3(self, tmp_path, capsys, doc):
        rc, ckpt = self.evaluate(tmp_path, json.dumps(doc))
        assert rc == cli.EXIT_DATA
        assert str(ckpt) in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("slope"),
        lambda d: d.pop("layer_widths"),
        lambda d: d.update(layer_widths=[5, 7, 4]),
        lambda d: d.update(slope=1.5),
        lambda d: d["layers"][0].update(weight=[1.0, 2.0]),
        lambda d: d["layers"].pop(0),
        lambda d: d["layers"][0]["weight"][0].__setitem__(0, True),
        lambda d: d["layers"][-1]["bias"].__setitem__(0, False),
    ], ids=["no-slope", "no-widths", "widths-disagree", "bad-slope",
            "flat-weight", "unchained-layers", "true-weight", "false-bias"])
    def test_damaged_checkpoint_exits_3(self, tmp_path, capsys, edit):
        doc = json.loads(self.good_doc(tmp_path))
        edit(doc)
        capsys.readouterr()
        rc, ckpt = self.evaluate(tmp_path, json.dumps(doc))
        assert rc == cli.EXIT_DATA
        assert str(ckpt) in capsys.readouterr().err

    def test_truncated_checkpoint_exits_3(self, tmp_path, capsys):
        text = self.good_doc(tmp_path)
        capsys.readouterr()
        rc, ckpt = self.evaluate(tmp_path, text[:len(text) // 2])
        assert rc == cli.EXIT_DATA
        assert str(ckpt) in capsys.readouterr().err


class TestBadDatasetCsv:
    """Each defect on line 3 of a dataset CSV exits 3, naming the file and
    the line, whichever command reads it."""

    CASES = {
        "item_id-past-int64": (0, b"%d" % 2 ** 70, "label outside the int64"),
        "pid-past-int64": (1, b"%d" % 2 ** 70, "label outside the int64"),
        "cam-below-int64": (2, b"%d" % -2 ** 70, "label outside the int64"),
        "non-utf8": (4, b"0.5\xff", "not UTF-8 text"),
        "duplicate-item_id": (0, None, "repeated item_id"),
        "huge-field": (4, b"1" * 200_000, "field larger than field limit"),
    }

    def bad_csv(self, tmp_path, data, case):
        field, value, _ = self.CASES[case]
        with open(data, "rb") as f:
            lines = f.read().splitlines()
        fields = lines[2].split(b",")
        fields[field] = lines[1].split(b",")[0] if value is None else value
        lines[2] = b",".join(fields)
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\n".join(lines) + b"\n")
        return str(bad)

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_3_naming_line(self, tmp_path, capsys, command, case):
        data = make_data(tmp_path)
        bad = self.bad_csv(tmp_path, data, case)
        out = str(tmp_path / "out")
        if command == "train":
            rc, _ = quick_train(tmp_path, bad)
        else:
            ckpt = str(tmp_path / "init.json")
            numcore.save_checkpoint(ckpt, numcore.init_params([5, 8, 4], 0))
            rc = cli.main(["evaluate", "--checkpoint", ckpt, "--queries", data,
                           "--gallery", bad, "-o", out])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA
        assert f"{bad}:3: {self.CASES[case][2]}" in err
        assert "Traceback" not in err


class TestTooSmallDataset:
    """A dataset too small for the run exits 3 with the package's message,
    not NumPy's."""

    @staticmethod
    def shrink(tmp_path, rows):
        with open(make_data(tmp_path)) as f:
            lines = f.read().splitlines()
        small = tmp_path / "small.csv"
        small.write_text("\n".join(lines[:1 + rows]) + "\n")
        return str(small)

    @pytest.mark.parametrize("rows", [1, 0])
    def test_mining_needs_two_rows(self, tmp_path, capsys, rows):
        small = self.shrink(tmp_path, rows)
        rc, out = quick_train(tmp_path, small, extra=("--loss", "triplet_ohm"))
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA
        assert f"mining needs at least 2 rows, got {rows}" in err
        assert not os.path.exists(os.path.join(out, "checkpoint.json"))

    def test_bench_losses_needs_an_identity(self, tmp_path, capsys):
        small = self.shrink(tmp_path, 0)
        rc = cli.main(["bench-losses", "--data", small,
                       "-o", str(tmp_path / "bench")])
        assert rc == cli.EXIT_DATA
        assert "no identities to split" in capsys.readouterr().err

    @pytest.mark.parametrize("ids, fraction", [(4, "0.9"), (1, "0.3")])
    def test_bench_losses_needs_an_identity_to_train(
            self, tmp_path, capsys, monkeypatch, ids, fraction):
        data = make_data(tmp_path, ids=ids)
        trained = []
        monkeypatch.setattr(training, "train",
                            lambda *a, **k: trained.append(a))
        out = tmp_path / "bench"
        rc = cli.main(["bench-losses", "--data", data, "--val-fraction",
                       fraction, "-o", str(out)])
        assert rc == cli.EXIT_DATA
        assert (f"the dataset's {ids} identities, at validation fraction "
                f"{fraction}, leave no identities to split off for training"
                in capsys.readouterr().err)
        assert trained == []
        assert not out.exists()

    @pytest.mark.parametrize("ids, per_id, usable", [(6, 1, 0), (2, 4, 1)])
    def test_bench_losses_needs_a_split_some_loss_can_train(
            self, tmp_path, capsys, monkeypatch, ids, per_id, usable):
        """One-row identities, or a single training identity, leave no loss
        anything to train on; the command exits 3 before any cell."""
        data = make_data(tmp_path, ids=ids, per_id=per_id, dim=4)
        trained = []
        monkeypatch.setattr(training, "train",
                            lambda *a, **k: trained.append(a))
        out = tmp_path / "bench"
        rc = cli.main(["bench-losses", "--data", data, "--t0", "2", "--t1",
                       "4", "--losses", "batch_hard,triplet", "-o", str(out)])
        assert rc == cli.EXIT_DATA
        train_ids = ids - max(1, round(0.3 * ids))
        assert (f"every loss needs 2 training identities and one with 2 "
                f"rows; the split leaves {train_ids} identities, {usable} "
                "with 2 or more rows" in capsys.readouterr().err)
        assert trained == []
        assert not out.exists()

    def test_bench_losses_pk_shortfall_fails_cell_by_cell(self, tmp_path):
        """Fewer usable identities than --P fails the PK cells only."""
        data = make_data(tmp_path, ids=6, dim=4)
        out = tmp_path / "bench"
        rc = cli.main(["bench-losses", "--data", data, "--t0", "2", "--t1",
                       "4", "--losses", "batch_hard,triplet", "--margins",
                       "soft", "-o", str(out)])
        assert rc == cli.EXIT_OK
        with open(out / "bench_losses.csv", newline="") as f:
            status = {r["loss"]: r["status"] for r in csv.DictReader(f)}
        assert status["batch_hard"].startswith("failed: ")
        assert status["triplet"] == "ok"
