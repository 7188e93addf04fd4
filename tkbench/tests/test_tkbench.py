"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest tkbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tkbench import calibration, harness, reference, tracing, workloads
from tripletkit import datagen, evalkit, losses, optim, sampling, training

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path, capsys, workload, trace):
    rc = harness.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)], root=tmp_path, tiny=True)
    lines = capsys.readouterr().out.splitlines()
    return rc, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, capsys,
                                                    workload, trace):
    rc, text, result = _run(tmp_path, capsys, workload, trace)
    assert rc == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in text), m["name"]
    assert any(line.split()[:1] == ["failed_frac"] for line in text)
    assert list((tmp_path / ".bench_work").iterdir()) == []


def test_a_run_waits_for_every_process_it_starts(tmp_path, capsys):
    rc, _, _ = _run(tmp_path, capsys, "paper_pk", 0)
    assert rc == 0
    with pytest.raises(ChildProcessError):     # no child, running or not
        os.waitpid(-1, os.WNOHANG)


def test_benchmark_json_matches_the_metrics_the_harness_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        harness.PER_LAYER_UNITS
    assert {w["name"] for w in SPEC["workloads"]} == set(harness.WORKLOADS)


def test_clock_scales_each_segment_by_the_probes_around_it():
    ref = calibration.PROBE_REF_S
    readings = iter([0.0, ref, 3 * ref, ref])   # warm-up, start, split, end
    clock = workloads.Clock(lambda: next(readings))
    with clock.phase("train"):
        time.sleep(0.01)
        clock.split()
        time.sleep(0.01)
    assert clock.probes == [ref, 3 * ref, ref]
    # both segments sit between probes reading ref and 3*ref: half speed
    assert clock.scaled["train"] == pytest.approx(clock.phases["train"] / 2)


def test_self_times_sum_to_root_duration():
    train_set, _ = training.default_benchmark_sets(0)
    cfg = training.benchmark_config("lifted", losses.MarginMode.soft(), 0)
    cfg.schedule = optim.Schedule(1e-3, 5, 10)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span(tracing.ROOT):
            training.train(cfg, train_set)
    spans = tracer.spans
    own = tracing.self_times(spans)
    root_dur = spans[0][tracing.END] - spans[0][tracing.START]
    assert [s[tracing.PARENT] for s in spans].count(-1) == 1
    assert own.sum() == pytest.approx(root_dur, rel=1e-9, abs=0)
    assert (own >= 0).all()
    names = [s[tracing.NAME] for s in spans]
    assert names.count(tracing.STEP) == 10
    assert names.count("sampling.identity_index") == 10
    assert names.count("losses.lifted_loss") == 10


def test_tracer_patches_from_imports_and_restores_them():
    originals = (sampling.mlp_forward, sampling.pairwise_distances,
                 evalkit.rank_gallery, sampling.LabeledDataset.identity_index)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert sampling.mlp_forward is not originals[0]
        assert sampling.pairwise_distances is not originals[1]
        assert evalkit.rank_gallery is not originals[2]
        assert sampling.LabeledDataset.identity_index is not originals[3]
    assert (sampling.mlp_forward, sampling.pairwise_distances,
            evalkit.rank_gallery, sampling.LabeledDataset.identity_index) == originals


def _retrieval_case():
    people = datagen.generate(datagen.GenSpec(
        num_identities=6, items_per_identity=8, feature_dim=4,
        identity_spread=1.0, intra_spread=1.0, seed=5))
    is_query = np.arange(len(people)) % 8 < 2
    queries = people.subset(np.flatnonzero(is_query))
    gallery = people.subset(np.flatnonzero(~is_query))
    protocol = evalkit.EvalProtocol(cmc_ranks=(1, 5))
    return queries, gallery, protocol


def test_reference_accepts_evaluate_and_rejects_a_perturbed_result():
    queries, gallery, protocol = _retrieval_case()
    sample = reference.query_sample(len(queries), 0)
    result = evalkit.evaluate(queries, gallery, protocol)
    assert reference.check_eval(result, queries, gallery, protocol, sample) == []

    qi = int(sample[0])
    result.per_query_ap[qi] += 1e-9
    errors = reference.check_eval(result, queries, gallery, protocol, sample)
    assert any(f"query {qi}: AP" in e for e in errors)


def test_reference_rejects_a_wrong_query_count():
    queries, gallery, protocol = _retrieval_case()
    sample = reference.query_sample(len(queries), 0)
    result = evalkit.evaluate(queries, gallery, protocol)
    result.num_skipped += 1
    assert reference.check_eval(result, queries, gallery, protocol, sample)


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "tkbench", tmp_path / "tkbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "tkbench/run.py", "--workload", "paper_pk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
