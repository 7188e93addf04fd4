"""Pins the settable values of the public configuration objects and entry
points: a new field or parameter shows up here as a diff that must say
which caller needs it."""

import dataclasses
import inspect

import pytest

import numpy as np

from tripletkit import (datagen, diagnostics, evalkit, losses, numcore, optim,
                       sampling, training)

FIELDS = {
    training.RunConfig: ["loss", "margin", "metric", "P", "K", "B",
                         "layer_widths", "schedule", "seed",
                         "ohm_sample_fraction", "ohm_refresh_every"],
    optim.Schedule: ["eps0", "t0", "t1"],
    datagen.GenSpec: ["num_identities", "items_per_identity", "feature_dim",
                      "identity_spread", "intra_spread", "num_cameras",
                      "outlier_rate", "seed"],
    evalkit.EvalProtocol: ["mode", "exclude_same_camera_same_id",
                           "cmc_ranks"],
    numcore.MlpParams: ["layers", "seed"],
    optim.AdamState: ["first_moment", "second_moment", "step_count", "beta1"],
    training.TrainResult: ["params", "state"],
    losses.LossReport: ["loss", "grad_embeddings", "num_active", "per_term",
                        "distances"],
}

SIGNATURES = {
    training.train: ["cfg", "dataset", "log_writer"],
    evalkit.evaluate: ["queries", "gallery", "protocol"],
    evalkit.rank_gallery: ["query_embedding", "gallery_embeddings"],
    training.validation_map: ["params", "val"],
    numcore.leaky_relu: ["x"],
    diagnostics.collapse_alarm: ["initial_median", "streak", "median",
                                 "active"],
}


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields(cls):
    assert [f.name for f in dataclasses.fields(cls)] == FIELDS[cls]


@pytest.mark.parametrize("fn", list(SIGNATURES), ids=lambda f: f.__name__)
def test_signatures(fn):
    assert list(inspect.signature(fn).parameters) == SIGNATURES[fn]


def test_derived_values_are_not_settable():
    p = numcore.init_params([4, 6, 3], seed=0)
    assert p.layer_widths == [4, 6, 3]
    with pytest.raises(AttributeError):
        p.layer_widths = [4, 6, 2]
    state = optim.AdamState.for_params(p).to_dict()
    assert (state["beta2"], state["eps_hat"]) == (optim.BETA2, optim.EPS_HAT)


def test_samplers_return_triplet_rows():
    """Sampled and mined triplets are (B, 3) int64 arrays of (anchor,
    positive, negative) dataset rows."""
    ds = datagen.generate(datagen.GenSpec(num_identities=4,
                                          items_per_identity=3,
                                          feature_dim=2, seed=0))
    rng = np.random.default_rng(0)
    sampled = sampling.sample_random_triplets(ds, 5, rng)
    mined = sampling.mine_hard_offline(numcore.init_params([2, 3], seed=0),
                                       ds, 1.0, 5, losses.MarginMode.soft(),
                                       rng)
    for triplets in (sampled, mined):
        assert triplets.shape == (5, 3) and triplets.dtype == np.int64
