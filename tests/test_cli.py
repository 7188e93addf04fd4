import json
import os

import numpy as np
import pytest

from tripletkit import cli, optim, training
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
        meta = json.load(open(csv_path.replace(".csv", "_spec.json")))
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


class TestTrain:
    def test_writes_checkpoint_and_log(self, tmp_path):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        assert rc == cli.EXIT_OK
        assert os.path.exists(os.path.join(out, "checkpoint.json"))
        log = open(os.path.join(out, "train_log.csv")).read().splitlines()
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
        ckpt = json.load(open(os.path.join(out, "checkpoint.json")))
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
        log = open(os.path.join(out, "train_log.csv")).read().splitlines()
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

    def test_nonfinite_loss_exits_4_without_checkpoint(self, tmp_path,
                                                       capsys):
        data = make_data(tmp_path)
        capsys.readouterr()
        rc, out = quick_train(tmp_path, data, extra=("--eps0", "1e300"))
        assert rc == cli.EXIT_COLLAPSE
        assert "non-finite loss at iteration" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "checkpoint.json"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_feature_exits_3(self, tmp_path, capsys, value):
        bad = write_nonfinite(tmp_path, make_data(tmp_path), value)
        capsys.readouterr()
        rc, out = quick_train(tmp_path, bad)
        assert rc == cli.EXIT_DATA
        assert f"{bad}:3: non-finite" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "checkpoint.json"))


@pytest.mark.parametrize("command", ["train", "bench-losses"])
def test_shared_run_flags_reach_run_config(tmp_path, monkeypatch, command):
    data = make_data(tmp_path, ids=8)
    seen = []

    def capture(cfg, dataset, writer=None):
        seen.append(cfg)
        raise training.CollapseError(1)

    monkeypatch.setattr(training, "train", capture)
    cli.main([command, "--data", data, "--P", "3", "--K", "2", "--B", "5",
              "--widths", "5,7,4", "--eps0", "0.002", "--t0", "11",
              "--t1", "13", "--seed", "9", "-o", str(tmp_path / "out")])
    assert seen
    for cfg in seen:
        assert (cfg.P, cfg.K, cfg.B, cfg.layer_widths, cfg.schedule,
                cfg.seed) == (3, 2, 5, [5, 7, 4],
                              optim.Schedule(0.002, 11, 13), 9)


class TestEvaluate:
    def test_end_to_end(self, tmp_path):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        assert rc == cli.EXIT_OK
        ckpt = os.path.join(out, "checkpoint.json")
        rc = cli.main(["evaluate", "--checkpoint", ckpt, "--queries", data,
                       "--gallery", data, "-o", out])
        assert rc == cli.EXIT_OK
        report = json.load(open(os.path.join(out, "eval_report.json")))
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

    def test_dim_mismatch_exits_3(self, tmp_path):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        other = make_data(tmp_path, name="wide", dim=7)
        rc = cli.main(["evaluate",
                       "--checkpoint", os.path.join(out, "checkpoint.json"),
                       "--queries", other, "--gallery", other, "-o", out])
        assert rc == cli.EXIT_DATA

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
        report = json.load(open(os.path.join(out, "eval_report.json")))
        assert report["with_distractors"]["map"] <= report["map"] + 1e-12

    @pytest.mark.parametrize("empty", ["queries", "gallery"])
    def test_empty_csv_exits_3(self, tmp_path, capsys, empty):
        data = make_data(tmp_path)
        rc, out = quick_train(tmp_path, data)
        header_only = tmp_path / "empty.csv"
        header_only.write_text(open(data).readline())
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
        lines = open(data).read().splitlines()
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
        rows = open(os.path.join(out, "bench_losses.csv")).read().splitlines()
        assert rows[0] == "loss,margin,map,rank1,status"
        assert len(rows) == 5
        for row in rows[1:]:
            assert row.endswith(",ok")

    def test_unknown_loss_exits_2(self, tmp_path):
        data = make_data(tmp_path)
        rc = cli.main(["bench-losses", "--data", data, "--losses", "bogus",
                       "-o", str(tmp_path)])
        assert rc == cli.EXIT_USAGE

    def test_nonfinite_cell_is_marked_collapsed(self, tmp_path):
        ds = read_dataset_csv(make_data(tmp_path, ids=8))
        train_set, val_set = training.identity_disjoint_split(ds, 0.3, 0)
        base = training.RunConfig(P=3, K=2, layer_widths=[5, 8, 4],
                                  schedule=optim.Schedule(1e300, 5, 10))
        cell = cli.run_bench_cell("batch_hard", "soft", train_set, val_set,
                                  base)
        assert cell["status"] == "*"
