"""Checkpoint files: `save_checkpoint` against the `json.dump` writer it
replaced, a byte-stable save, load and save, and `tripletkit evaluate` on
checkpoints mutated from a valid one (property-based; needs hypothesis,
see the `test` extra)."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletkit import cli, datagen, numcore
from tripletkit.optim import AdamState
from tripletkit.sampling import LabeledDataset, write_dataset_csv

DIM = 4


def reference_save_checkpoint(path, params, optim_state=None):
    """`save_checkpoint` as it was, streaming through `json.dump`."""
    doc = {
        "layer_widths": params.layer_widths,
        "slope": numcore.SLOPE,
        "seed": params.seed,
        "layers": numcore.layers_to_json(params.layers),
    }
    if optim_state is not None:
        doc["optim"] = optim_state
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def model_and_state(seed):
    """Params, and an Adam state whose moments span every magnitude of
    float64: signed zeros, subnormals and values near the largest."""
    params = numcore.init_params([DIM, 16, 8], seed)
    state = AdamState.for_params(params)
    rng = np.random.default_rng(seed)
    for moment in (state.m, state.v):
        moment[:] = rng.standard_normal(moment.size) * 10.0 ** rng.integers(
            -320, 300, moment.size)
    state.m[:4] = (-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308)
    state.step_count, state.beta1 = 12345, 0.5
    return params, state


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("with_state", [True, False])
def test_bytes_match_json_dump(tmp_path, seed, with_state):
    params, state = model_and_state(seed)
    optim_state = state.to_dict() if with_state else None
    numcore.save_checkpoint(tmp_path / "new.json", params, optim_state)
    reference_save_checkpoint(tmp_path / "old.json", params, optim_state)
    assert (tmp_path / "new.json").read_bytes() == \
        (tmp_path / "old.json").read_bytes()


def test_save_load_save_is_byte_stable(tmp_path):
    params, state = model_and_state(2)
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    numcore.save_checkpoint(first, params, state.to_dict())
    loaded, optim_state = numcore.load_checkpoint(first)
    restored = AdamState.from_dict(optim_state)
    assert restored.m.tobytes() == state.m.tobytes()
    assert restored.v.tobytes() == state.v.tobytes()
    numcore.save_checkpoint(second, loaded, restored.to_dict())
    assert second.read_bytes() == first.read_bytes()


# ---- mutated checkpoints --------------------------------------------------

@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory with a DIM-wide dataset CSV, the same rows under other
    identities as a distractor CSV, and a checkpoint document for them
    with an Adam state."""
    d = tmp_path_factory.mktemp("mutated")
    people = datagen.generate(datagen.GenSpec(
        num_identities=6, items_per_identity=4, feature_dim=DIM, seed=0))
    write_dataset_csv(d / "data.csv", people)
    write_dataset_csv(d / "distractors.csv", LabeledDataset(
        people.features, people.pids + 100, people.cams, people.item_ids))
    params = numcore.init_params([DIM, 8, 4], seed=0)
    state = AdamState.for_params(params)
    state.m[:] = np.linspace(-1.0, 1.0, state.m.size)
    state.v[:] = np.linspace(0.0, 2.0, state.v.size)
    numcore.save_checkpoint(d / "good.json", params, state.to_dict())
    return d, json.loads((d / "good.json").read_text())


def sites(node, path=()):
    """The path of every value in a checkpoint document, the document
    itself included, but not the seed: unlike every other number in it,
    it may be any integer or null, so its mutations are tested apart."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        if key != "seed":
            yield from sites(value, (*path, key))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def is_number(value):
    return type(value) in (int, float)


def number_lists(doc):
    """Paths of the lists of numbers: weight rows, biases, layer widths."""
    return [p for p in sites(doc) if isinstance(at(doc, p), list)
            and at(doc, p) and all(map(is_number, at(doc, p)))]


@st.composite
def mutations(draw, doc):
    """(path, document): `doc` with one defect at `path`: a ragged list, a
    value of a wrong type, a number too large or not finite, or a missing
    key."""
    doc = copy.deepcopy(doc)
    kind = draw(st.sampled_from(["ragged", "type", "huge", "missing"]))
    if kind == "ragged":
        path = draw(st.sampled_from(number_lists(doc)))
        if draw(st.booleans()):
            at(doc, path).pop()
        else:
            at(doc, path).append(0.5)
        return path, doc
    if kind == "missing":
        path = draw(st.sampled_from(
            [p for p in sites(doc) if p and p[-1] in ("layer_widths", "slope",
                                                      "layers", "weight",
                                                      "bias")
             or len(p) == 2 and p[0] == "optim"]))
        del at(doc, path[:-1])[path[-1]]
        return path, doc
    if kind == "type":
        path = draw(st.sampled_from(list(sites(doc))))
        value = draw(st.sampled_from([None, True, False, "0.5", [], {},
                                      [[0.5]]]))
    else:
        path = draw(st.sampled_from(
            [p for p in sites(doc) if is_number(at(doc, p))]))
        value = draw(st.sampled_from([10 ** 400, -10 ** 400, float("inf"),
                                      float("-inf"), float("nan")]))
    if not path:
        return path, value
    at(doc, path[:-1])[path[-1]] = value
    return path, doc


def evaluate(d, ckpt, *extra):
    """`tripletkit evaluate` of `ckpt` on the DIM-wide data in `d`:
    (exit code, stderr)."""
    err = io.StringIO()
    data = str(d / "data.csv")
    with contextlib.redirect_stderr(err):
        rc = cli.main(["evaluate", "--checkpoint", str(ckpt), "--queries",
                       data, "--gallery", data, "-o", str(d / "out"),
                       *extra])
    return rc, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_checkpoint_exits_3_without_traceback(valid, data):
    """`evaluate` reads the model part of a checkpoint and exits 3 on any
    defect in it. It does not read the Adam state, so a defect there must
    be refused by `AdamState.from_dict`, which `load_checkpoint` returns
    it for."""
    d, good = valid
    path, doc = data.draw(mutations(good))
    ckpt = d / "bad.json"
    ckpt.write_text(json.dumps(doc))
    rc, err = evaluate(d, ckpt)
    assert "Traceback" not in err
    if path[:1] == ("optim",):
        assert rc == cli.EXIT_OK, err
        with pytest.raises(numcore.CheckpointError):
            AdamState.from_dict(doc["optim"])
    else:
        assert rc == cli.EXIT_DATA, (path, err)
        assert err.startswith(f"error: {ckpt}")


def test_zero_width_layer_exits_3_and_writes_no_report(valid, tmp_path):
    """A [DIM, 0] model embeds every row as the empty vector, so all rows
    tie at distance 0; `evaluate` refuses it as a malformed checkpoint."""
    d, good = valid
    doc = {**good, "layer_widths": [DIM, 0],
           "layers": [{"weight": [[]] * DIM, "bias": []}]}
    del doc["optim"]
    ckpt = tmp_path / "zero_width.json"
    ckpt.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["evaluate", "--checkpoint", str(ckpt), "--queries",
                       str(d / "data.csv"), "--gallery", str(d / "data.csv"),
                       "-o", str(tmp_path / "out")])
    assert rc == cli.EXIT_DATA
    assert err.getvalue().startswith(f"error: {ckpt}")
    assert "empty" in err.getvalue()
    assert not (tmp_path / "out" / "eval_report.json").exists()


@pytest.mark.parametrize("key", ["step_count", "beta1"])
@pytest.mark.parametrize("value", [10 ** 400, 2 ** 63, -1, float("inf"),
                                   float("nan"), True, "1", None, [0.5]],
                         ids=["10**400", "2**63", "-1", "inf", "nan", "true",
                              "string", "null", "list"])
def test_adam_scalars_of_wrong_type_or_size_refused(valid, key, value):
    doc = copy.deepcopy(valid[1]["optim"])
    doc[key] = value
    with pytest.raises(numcore.CheckpointError, match=key):
        AdamState.from_dict(doc)


@pytest.mark.parametrize("seed", ["abc", "7", 1.5, 7.0, True, False, [],
                                  [7], {}, {"seed": 7}])
def test_seed_that_is_not_an_integer_or_null_exits_3(valid, seed):
    d, good = valid
    doc = copy.deepcopy(good)
    doc["seed"] = seed
    ckpt = d / "bad_seed.json"
    ckpt.write_text(json.dumps(doc))
    with pytest.raises(numcore.CheckpointError, match="seed"):
        numcore.load_checkpoint(ckpt)
    rc, err = evaluate(d, ckpt)
    assert rc == cli.EXIT_DATA
    assert err.startswith(f"error: {ckpt}") and "seed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [None, 0, -3, 2 ** 70, "missing"])
def test_integer_null_or_missing_seed_loads(valid, tmp_path, seed):
    doc = copy.deepcopy(valid[1])
    if seed == "missing":
        del doc["seed"]
        seed = None
    else:
        doc["seed"] = seed
    ckpt = tmp_path / "seed.json"
    ckpt.write_text(json.dumps(doc))
    params, _ = numcore.load_checkpoint(ckpt)
    assert params.seed == seed


@pytest.mark.parametrize("extra", [(), ("--distractors",)])
def test_huge_finite_weights_exit_3_without_warning(valid, extra):
    """Weights near the float64 maximum overflow in the forward pass; the
    suite turns any RuntimeWarning into an error, so this also checks
    that none is emitted."""
    d, good = valid
    doc = copy.deepcopy(good)
    doc["layers"][0]["weight"][0][0] = 1e308
    doc["layers"][0]["weight"][1][1] = -1e308
    ckpt = d / "huge.json"
    ckpt.write_text(json.dumps(doc))
    if extra:
        extra = (*extra, str(d / "distractors.csv"))
    rc, err = evaluate(d, ckpt, *extra)
    assert rc == cli.EXIT_DATA
    assert err == "error: embeddings are not finite\n"
