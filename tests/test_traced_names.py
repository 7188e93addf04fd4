"""The benchmark's span tracer still sees every layer of a training step.

`tkbench/tracing.py` wraps public functions by name to split a step into
layers. A function that drops off the training path leaves its layer
reading 0 without any error, so this trains three steps of every loss
under the tracer and checks that each layer's function is still called,
and the distance kernel exactly once per step outside offline mining.

The tracer keeps one span stack for all threads, so the query blocks that
`evalkit.evaluate` hands to helper threads must call no traced function.
"""

import collections
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tkbench import tracing  # noqa: E402
from tripletkit import (diagnostics, evalkit, losses, optim,  # noqa: E402
                        training)
from tripletkit.sampling import LabeledDataset  # noqa: E402

LOSS_SPAN = {
    "triplet": "classic_triplet_loss", "triplet_ohm": "classic_triplet_loss",
    "batch_hard": "batch_hard_loss", "batch_hard_nnz": "batch_hard_loss",
    "batch_all": "batch_all_loss", "batch_all_nnz": "batch_all_loss",
    "lifted": "lifted_loss", "lifted_gen": "lifted_generalized_loss",
    "lmnn": "lmnn_loss",
}

EVERY_STEP = ("numcore.forward", "numcore.backward", "losses.distances",
              "optim.adam", "diagnostics.batch_stats",
              "diagnostics.collapse_alarm", "diagnostics.log_append")

BY_BATCH = {
    "random": ("sampling.random_triplets", "sampling.identity_index"),
    "mined": ("sampling.mine",),
    "pk": ("sampling.pk_batch", "sampling.identity_index"),
}

STEPS = 3


def _ancestor(spans, sid, name):
    """The id of the nearest enclosing span called `name`, or None."""
    sid = spans[sid][tracing.PARENT]
    while sid >= 0 and spans[sid][tracing.NAME] != name:
        sid = spans[sid][tracing.PARENT]
    return sid if sid >= 0 else None


def test_every_loss_name_is_covered():
    assert set(LOSS_SPAN) == set(losses.LOSS_NAMES)
    assert set(LOSS_SPAN.values()) == set(tracing.LOSS_FUNCTIONS)
    traced = {name for *_, name, _ in tracing.TRACED}
    assert {*EVERY_STEP, *sum(BY_BATCH.values(), ())} <= traced


@pytest.mark.parametrize("loss", losses.LOSS_NAMES)
def test_traced_names_stay_on_the_training_path(loss, tmp_path):
    train_set, _ = training.default_benchmark_sets(7)
    cfg = training.benchmark_config(loss, losses.MarginMode.soft(), seed=7)
    cfg.schedule = optim.Schedule(1e-3, 2, STEPS)
    cfg.ohm_sample_fraction = 1.0
    tracer = tracing.Tracer()
    with tracer.installed(), \
            diagnostics.TrainLogWriter(tmp_path / "log.csv") as writer:
        training.train(cfg, train_set, writer)
    spans = tracer.spans

    counts = collections.Counter(s[tracing.NAME] for s in spans)
    assert counts[tracing.TRAIN] == 1
    assert counts[tracing.STEP] == STEPS
    assert counts[f"losses.{LOSS_SPAN[loss]}"] == STEPS
    for name in (*EVERY_STEP, *BY_BATCH[losses.LOSSES[loss].batch]):
        assert counts[name] >= 1, name

    per_step = {i: 0 for i, s in enumerate(spans)
                if s[tracing.NAME] == tracing.STEP}
    for i, s in enumerate(spans):
        if s[tracing.NAME] == "losses.distances" and \
                _ancestor(spans, i, "sampling.mine") is None:
            per_step[_ancestor(spans, i, tracing.STEP)] += 1
    assert list(per_step.values()) == [1] * STEPS


def test_evaluate_blocks_on_helper_threads_record_no_span(monkeypatch):
    rng = np.random.default_rng(5)
    queries = LabeledDataset(rng.standard_normal((300, 4)),
                             np.arange(300) % 30, np.arange(300) % 3,
                             np.arange(300))
    gallery = LabeledDataset(rng.standard_normal((200, 4)),
                             np.arange(200) % 30, np.arange(200) % 2,
                             np.arange(200))
    monkeypatch.setattr(evalkit, "_available_cpus", lambda: 2)
    # 2000-element blocks: 5 rows each, 60 blocks
    monkeypatch.setattr(evalkit, "_BLOCK_ELEMENTS", 2000)
    threads = set()
    relevant_ranks = evalkit._relevant_ranks

    def recording(dist, query, flat, refill):
        threads.add(threading.get_ident())
        return relevant_ranks(dist, query, flat, refill)

    monkeypatch.setattr(evalkit, "_relevant_ranks", recording)
    tracer = tracing.Tracer()
    with tracer.installed():
        evalkit.evaluate(queries, gallery)
    assert len(threads) == 2
    assert [s[tracing.NAME] for s in tracer.spans] == ["evalkit.evaluate"]
