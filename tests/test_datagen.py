import hashlib
import json

import numpy as np
import pytest

from tripletkit.datagen import (MAX_FEATURE_ELEMENTS, GenSpec, generate,
                                write_generated)
from tripletkit.sampling import read_dataset_csv


class TestGenerate:
    def test_counts_and_labels(self):
        ds = generate(GenSpec(num_identities=3, items_per_identity=4,
                              feature_dim=5, seed=1))
        assert len(ds) == 12
        ids, counts = np.unique(ds.pids, return_counts=True)
        assert ids.tolist() == [0, 1, 2]
        assert counts.tolist() == [4, 4, 4]

    def test_zero_intra_spread(self):
        ds = generate(GenSpec(num_identities=2, items_per_identity=3,
                              feature_dim=4, intra_spread=0.0, seed=2))
        for pid in (0, 1):
            rows = ds.features[ds.pids == pid]
            assert np.all(rows == rows[0])

    def test_outlier_binomial(self):
        spec = GenSpec(num_identities=10, items_per_identity=1000,
                       feature_dim=2, outlier_rate=0.1, seed=3)
        ds = generate(spec)
        clean = generate(GenSpec(num_identities=10, items_per_identity=1000,
                                 feature_dim=2, outlier_rate=0.0, seed=3))
        flipped = int(np.sum(ds.pids != clean.pids))
        n, p = 10_000, 0.1
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(flipped - n * p) < 3 * sigma

    def test_deterministic(self):
        spec = GenSpec(seed=7)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.pids, b.pids)

    def test_cameras_round_robin(self):
        ds = generate(GenSpec(num_identities=2, items_per_identity=4,
                              num_cameras=4, seed=0))
        assert ds.cams.tolist() == [0, 1, 2, 3] * 2
        most = generate(GenSpec(num_identities=2, items_per_identity=4,
                                num_cameras=2 ** 63 - 1, seed=0))
        assert most.cams.tolist() == list(range(8))

    def test_separability_nearest_centroid(self):
        ds = generate(GenSpec(num_identities=8, items_per_identity=10,
                              feature_dim=6, identity_spread=10.0,
                              intra_spread=0.05, outlier_rate=0.0, seed=4))
        centroids = np.array([ds.features[ds.pids == p].mean(axis=0)
                              for p in range(8)])
        d = np.linalg.norm(ds.features[:, None, :] - centroids[None], axis=2)
        pred = np.argmin(d, axis=1)
        assert np.array_equal(pred, ds.pids)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GenSpec(identity_spread=0.0)
        with pytest.raises(ValueError):
            GenSpec(outlier_rate=1.0)
        with pytest.raises(ValueError):
            GenSpec(intra_spread=-1.0)
        for cameras in (0, 2 ** 63):    # camera ids are int64
            with pytest.raises(ValueError, match="num_cameras"):
                GenSpec(num_cameras=cameras)
        with pytest.raises(ValueError, match="feature_dim"):
            GenSpec(feature_dim=0)

    def test_feature_matrix_is_capped(self):
        # a spec is checked, not generated: these allocate nothing
        GenSpec(num_identities=MAX_FEATURE_ELEMENTS // 4,
                items_per_identity=2, feature_dim=2)
        for counts in ((MAX_FEATURE_ELEMENTS // 4 + 1, 2, 2), (10 ** 12, 1, 1),
                       (1, 10 ** 12, 1), (1, 1, 10 ** 12)):
            with pytest.raises(ValueError, match="--ids/--per-id/--dim"):
                GenSpec(num_identities=counts[0],
                        items_per_identity=counts[1], feature_dim=counts[2])

    @pytest.mark.parametrize("spec, digest", [
        (GenSpec(seed=7),
         "1744f38746e5c4d5f5fa2710e5142eebd135a273b7d7d7db7bf605f7db512417"),
        (GenSpec(num_identities=5, items_per_identity=3, feature_dim=1,
                 num_cameras=1, outlier_rate=0.3, seed=2),
         "b8742ae57c3c0d9b2a56f9e86f111023f80694c99b1fb02175da0bb632f8dc02"),
    ])
    def test_output_is_pinned(self, spec, digest):
        # benchmark inputs come from the generator: its bytes must not move
        ds = generate(spec)
        raw = b"".join(a.tobytes() for a in (ds.features, ds.pids, ds.cams,
                                             ds.item_ids))
        assert hashlib.sha256(raw).hexdigest() == digest


def test_write_generated(tmp_path):
    spec = GenSpec(num_identities=4, items_per_identity=2, feature_dim=3,
                   seed=5)
    csv_path, json_path = write_generated(tmp_path, spec, name="toy")
    ds = read_dataset_csv(csv_path)
    assert len(ds) == 8
    with open(json_path) as f:
        echo = json.load(f)
    assert echo["num_identities"] == 4
    assert echo["seed"] == 5
