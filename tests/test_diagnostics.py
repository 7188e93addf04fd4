import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletkit import diagnostics
from tripletkit.diagnostics import (LOG_HEADER, PERCENTILES, AlarmTrigger,
                                    TrainLogRecord, TrainLogWriter,
                                    batch_stats, collapse_alarm,
                                    median_pair_distance)
from tripletkit.losses import (BatchLabels, DistanceMatrix, LossReport,
                               MarginMode, batch_hard_loss)

from oracles import oracle_sorted_percentile


def make_record(iteration, median_dist, active_frac):
    pct = (0.0, median_dist / 2, median_dist, median_dist * 2, median_dist * 3)
    return TrainLogRecord(iteration, 0.5, 0.1, active_frac,
                          (1.0,) * 5, pct, 1e-3)


class TestBatchStats:
    def test_identical_embeddings(self):
        x = np.ones((6, 3))
        labels = BatchLabels(np.repeat([0, 1], 3))
        report = batch_hard_loss(x, labels, "euclidean", MarginMode.hard(0.2))
        rec = batch_stats(x, report, iteration=1, lr=1e-3)
        assert all(v == 0.0 for v in rec.pair_dist_percentiles)
        assert len(set(rec.emb_norm_percentiles)) == 1

    def test_inactive_batch(self):
        x = np.array([[0.0], [0.1], [50.0], [50.1]])
        labels = BatchLabels(np.array([0, 0, 1, 1]))
        report = batch_hard_loss(x, labels, "euclidean", MarginMode.hard(0.2))
        rec = batch_stats(x, report, 1, 1e-3)
        assert rec.active_fraction == 0.0

    def test_active_fraction_matches_report(self, rng):
        x = rng.standard_normal((8, 4))
        labels = BatchLabels(np.repeat(np.arange(4), 2))
        report = batch_hard_loss(x, labels, "euclidean", MarginMode.soft())
        rec = batch_stats(x, report, 1, 1e-3)
        assert rec.active_fraction == report.num_active / report.num_terms

    def test_percentiles_match_sort_oracle(self, rng):
        values = rng.standard_normal(100) ** 2
        x = np.zeros((101, 1))                # unused geometry
        for q in PERCENTILES:
            got = np.percentile(values, q)
            want = oracle_sorted_percentile(values.tolist(), q)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("values", [
        [3.5],                                  # one value
        [2.0, -1.0],                            # two values
        [1.0, 1.0, 2.0, 2.0, 2.0, 0.5],         # ties
        [0.0, 0.0, 0.0],
        np.linspace(0.1, 9.7, 21) ** 3,
        np.random.default_rng(5).standard_normal(2556) * 1e-5,
        np.random.default_rng(6).exponential(1e5, 999),
    ])
    @pytest.mark.parametrize("percents", [
        (5,), PERCENTILES,
        # fractional ranks with weight >= 0.5, interpolated from above
        (7.5, 62.5, 87.5, 99.0),
    ])
    def test_percentiles_match_numpy_bitwise(self, values, percents):
        values = np.asarray(values, dtype=np.float64)
        want = np.percentile(values, percents)
        got = np.array(diagnostics._sorted_percentiles(
            np.sort(values, axis=None), percents))
        assert got.tobytes() == want.tobytes()

    def test_percentiles_interpolate_down_from_upper_neighbour(self):
        # rank 1.875 between 0.4858... and 0.8894...: weight 0.875 >= 0.5,
        # where b - (b-a)*(1-t) and a + (b-a)*t differ in the last bit
        values = np.array([0.9340435159562497, 0.35779519670907023,
                           0.8894878343490003, 0.4858353588317891])
        a, b, t = 0.4858353588317891, 0.8894878343490003, 0.875
        assert a + (b - a) * t != b - (b - a) * (1 - t)
        got = diagnostics._sorted_percentiles(np.sort(values), (62.5,))[0]
        assert got == b - (b - a) * (1 - t) == np.percentile(values, 62.5)

    def test_percentile_arrays_nondecreasing(self, rng):
        x = rng.standard_normal((10, 5))
        labels = BatchLabels(np.repeat(np.arange(5), 2))
        report = batch_hard_loss(x, labels, "euclidean", MarginMode.soft())
        rec = batch_stats(x, report, 1, 1e-3)
        for arr in (rec.emb_norm_percentiles, rec.pair_dist_percentiles):
            assert list(arr) == sorted(arr)


    @pytest.mark.parametrize("nan_term", [False, True])
    def test_batch_stats_match_numpy_percentiles_bitwise(self, rng, nan_term):
        x = rng.standard_normal((8, 3))
        labels = BatchLabels(np.repeat(np.arange(4), 2))
        report = batch_hard_loss(x, labels, "euclidean", MarginMode.hard(0.2))
        if nan_term:    # a NaN there leaves the other panels alone
            report.per_term[3] = np.nan
        rec = batch_stats(x, report, 1, 1e-3)
        dists = np.sqrt(report.distances.squared[np.triu_indices(8, k=1)])
        want = [np.percentile(report.per_term, 5),
                *np.percentile(np.linalg.norm(x, axis=1), PERCENTILES),
                *np.percentile(dists, PERCENTILES)]
        got = [rec.loss_p5, *rec.emb_norm_percentiles,
               *rec.pair_dist_percentiles]
        assert np.array(got).tobytes() == np.array(want).tobytes()


@st.composite
def squared_distances(draw):
    """An (n, n) matrix of squared distances for n >= 2 rows: repeated
    values, spread ones or a mix, possibly with a NaN."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    repeated = rng.choice([0.0, 1e-12, 0.25, 1.0, 2.0], size=(n, n))
    spread = rng.exponential(10.0 ** draw(st.integers(-6, 6)), size=(n, n))
    mix = draw(st.sampled_from(["repeated", "spread", "both"]))
    squared = {"repeated": repeated, "spread": spread,
               "both": np.where(rng.random((n, n)) < 0.5, repeated,
                                spread)}[mix]
    if draw(st.booleans()):
        squared.flat[draw(st.integers(0, n * n - 1))] = np.nan
    return squared


class TestMedianPairDistance:
    @settings(max_examples=200, deadline=None)
    @given(squared_distances())
    def test_matches_numpy_and_the_panel_bitwise(self, squared):
        n = len(squared)
        dists = np.sqrt(squared[np.triu_indices(n, k=1)])
        got = np.float64(median_pair_distance(squared))
        assert got.tobytes() == np.percentile(dists, 50).tobytes()
        report = LossReport(0.0, np.zeros((n, 1)), 0, np.zeros(1),
                            DistanceMatrix(squared, "squared_euclidean",
                                           squared))
        panel = batch_stats(np.zeros((n, 1)), report, 1, 1e-3)
        assert got.tobytes() == \
            np.float64(panel.pair_dist_percentiles[2]).tobytes()

    def test_single_pair(self):
        squared = np.array([[0.0, 6.25], [6.25, 0.0]])
        assert median_pair_distance(squared) == 2.5


def first_alarm(history: list, window: int):
    """(step, trigger) of the first alarm on `history`, the (median pair
    distance, active fraction) pairs of every step from the first, fed to
    `collapse_alarm` one step at a time as `train` feeds it; None if it
    never fires."""
    initial, streak = history[0][0], None
    for t, (median, active) in enumerate(history, 1):
        streak = collapse_alarm(initial, streak, median, active)
        if streak is not None and streak.window == window:
            return t, streak
    return None


def first_alarm_by_scan(history: list, window: int):
    """`first_alarm` by brute force: every `window` consecutive steps after
    the first, scanned in full."""
    initial = history[0][0]
    threshold = diagnostics.COLLAPSE_DIST_RATIO * initial
    for end in range(window + 1, len(history) + 1):
        steps = history[end - window:end]
        if all(median < threshold and active > diagnostics.COLLAPSE_ACTIVITY
               for median, active in steps):
            return end, AlarmTrigger(
                initial, max(median for median, _ in steps) / initial,
                min(active for _, active in steps), window)
    return None


@st.composite
def alarm_histories(draw):
    """A window and a history whose steps are mostly collapsed, with
    values on and near both thresholds and NaN medians."""
    window = draw(st.integers(1, 6))
    initial = draw(st.floats(0.0, 1e3))
    ratio = diagnostics.COLLAPSE_DIST_RATIO
    # the collapsed ranges are listed twice so that runs grow long
    median = st.one_of(
        st.floats(0.0, ratio).map(lambda r: r * initial),
        st.floats(0.0, ratio).map(lambda r: r * initial),
        st.just(ratio * initial), st.floats(0.0, 10 * initial),
        st.just(0.0), st.just(math.nan))
    active = st.one_of(st.floats(diagnostics.COLLAPSE_ACTIVITY, 1.0),
                       st.floats(diagnostics.COLLAPSE_ACTIVITY, 1.0),
                       st.just(diagnostics.COLLAPSE_ACTIVITY),
                       st.floats(0.0, 1.0))
    steps = draw(st.lists(st.tuples(median, active), max_size=40))
    return window, [(initial, draw(active)), *steps]


class TestCollapseAlarm:
    """The alarm fires when the run of collapsed steps `collapse_alarm`
    returns is a window long."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_full_window_scan(self, seed):
        rng = np.random.default_rng(seed)
        window = int(rng.integers(2, 8))
        history = [(1.0, 1.0)]
        for _ in range(1, int(rng.integers(1, 20))):
            healthy = rng.random() < 0.15
            history.append((1.0 if healthy else 1e-5,
                            0.5 if rng.random() < 0.1 else 1.0))
        for end in range(1, len(history) + 1):
            assert first_alarm(history[:end], window) == \
                first_alarm_by_scan(history[:end], window)

    @settings(max_examples=300, deadline=None)
    @given(alarm_histories())
    def test_matches_a_scan_of_every_window(self, case):
        window, history = case
        got, want = first_alarm(history, window), \
            first_alarm_by_scan(history, window)
        # repr tells every float apart, signed zeros included
        assert repr(got) == repr(want)

    def test_a_healthy_step_ends_the_run(self):
        run = collapse_alarm(1.0, None, 1e-5, 1.0)
        assert run == AlarmTrigger(1.0, 1e-5, 1.0, 1)
        assert collapse_alarm(1.0, run, 1e-5, 0.5) is None
        assert collapse_alarm(1.0, run, 1e-3, 1.0) is None

    def test_healthy_history(self):
        history = [(1.0 + 0.01 * i, 0.5) for i in range(300)]
        assert first_alarm(history, diagnostics.COLLAPSE_WINDOW) is None

    def test_constructed_collapse(self):
        history = [(1.0, 1.0)] + [(1e-5, 1.0)] * 301
        t, trigger = first_alarm(history, diagnostics.COLLAPSE_WINDOW)
        assert t == diagnostics.COLLAPSE_WINDOW + 1
        assert trigger == AlarmTrigger(1.0, 1e-5, 1.0,
                                       diagnostics.COLLAPSE_WINDOW)

    def test_needs_saturated_activity(self):
        history = [(1.0, 1.0)] + [(1e-5, 0.5)] * 301
        assert first_alarm(history, diagnostics.COLLAPSE_WINDOW) is None

    def test_short_history_never_fires(self):
        history = [(1e-9, 1.0)] * 10
        assert first_alarm(history, 3) is None

    def test_trigger_reads_the_window(self):
        history = [(0.5, 1.0), (1.0, 0.1), (4e-4, 0.995), (2e-4, 1.0),
                   (3e-4, 1.0)]
        t, trigger = first_alarm(history, 3)
        assert t == 5
        assert trigger == AlarmTrigger(0.5, 4e-4 / 0.5, 0.995, 3)
        assert str(trigger) == (
            "over the last 3 steps the median pair distance was at most "
            "0.0008 of the first step's 0.5 (alarm below 0.001) and the "
            "active fraction at least 0.995 (alarm above 0.99)")


class TestLogWriter:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "log.csv"
        with TrainLogWriter(path) as w:
            w.append(make_record(1, 1.0, 0.5))
            w.append(make_record(2, 0.9, 0.4))
            with open(path) as f:
                rows = list(csv.reader(f))
        assert rows[0] == LOG_HEADER
        assert len(rows) == 3
        assert rows[1][0] == "1"

    def test_rejects_nonincreasing_iterations(self, tmp_path):
        with TrainLogWriter(tmp_path / "log.csv") as w:
            w.append(make_record(5, 1.0, 0.5))
            with pytest.raises(ValueError):
                w.append(make_record(5, 1.0, 0.5))
