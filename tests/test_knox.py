"""Knox contingency-table tests: golden micro-cases, dense oracle, Monte Carlo."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from nearchain import knox
from oracles import dense_knox_table

GOLDEN_XYT = np.array(
    [
        [0.0, 0.0, 0.0],
        [50.0, 0.0, 1.0],
        [10000.0, 0.0, 30.0],
    ]
)
GOLDEN_CONFIG = knox.KnoxConfig(
    distance_step=100.0,
    time_step=14.0,
    distance_bins=2,
    time_bins=2,
    permutations=0,
)


def random_events(rng, n, extent=5000.0, days=90.0):
    xyt = rng.random((n, 3))
    xyt[:, 0] *= extent
    xyt[:, 1] *= extent
    xyt[:, 2] *= days
    return xyt


# ------------------------------------------------------------------ binning


def test_coincident_pair_bins_at_origin():
    table = knox.build_table(
        np.zeros((2, 3)), knox.KnoxConfig(distance_bins=3, time_bins=3)
    )
    assert table.observed[0, 0] == 1
    assert table.observed.sum() == 1


def test_boundary_distance_goes_to_higher_bin():
    xyt = np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 14.0]])
    table = knox.build_table(xyt, knox.KnoxConfig(distance_bins=2, time_bins=2))
    assert table.observed[1, 1] == 1
    just_under = np.array([[0.0, 0.0, 0.0], [99.999, 0.0, 13.999]])
    table = knox.build_table(just_under, knox.KnoxConfig(distance_bins=2, time_bins=2))
    assert table.observed[0, 0] == 1


def test_identical_events_all_pairs_in_origin_cell():
    n = 40
    xyt = np.tile([123.0, 456.0, 7.0], (n, 1))
    table = knox.build_table(xyt, knox.KnoxConfig(distance_bins=4, time_bins=4))
    assert table.observed[0, 0] == n * (n - 1) // 2
    assert table.observed.sum() == table.total_pairs


def test_fewer_than_two_events_rejected():
    with pytest.raises(ValueError):
        knox.build_table(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        knox.build_table(np.zeros((0, 3)))


def test_two_column_events_rejected():
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        knox.build_table(np.zeros((6, 2)))
    table = knox.build_table(np.zeros((6, 3)), knox.KnoxConfig(permutations=3))
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        knox.monte_carlo(np.zeros((6, 2)), table)


@pytest.mark.parametrize("overflow", ["clamp", "drop"])
def test_monte_carlo_rejects_other_event_count(overflow):
    rng = np.random.default_rng(25)
    config = knox.KnoxConfig(permutations=9, overflow=overflow)
    table = knox.build_table(random_events(rng, 50, extent=1500.0, days=60.0), config)
    other = random_events(rng, 30, extent=1500.0, days=60.0)
    with pytest.raises(ValueError, match=r"30 events .* 50"):
        knox.monte_carlo(other, table)


def test_config_validation():
    with pytest.raises(ValueError):
        knox.KnoxConfig(distance_step=0.0).validate()
    with pytest.raises(ValueError):
        knox.KnoxConfig(time_step=-1.0).validate()
    with pytest.raises(ValueError):
        knox.KnoxConfig(overflow="wrap").validate()
    with pytest.raises(ValueError):
        knox.KnoxConfig(permutations=-1).validate()


# ------------------------------------------------------------- golden table


def test_golden_three_event_table():
    table = knox.build_table(GOLDEN_XYT, GOLDEN_CONFIG)
    assert table.observed.tolist() == [[1, 0], [0, 2]]
    assert table.dropped_pairs == 0
    expected, residuals = knox.expected_and_residuals(table)
    assert expected == pytest.approx(
        np.array([[1 / 3, 2 / 3], [2 / 3, 4 / 3]]), abs=1e-12
    )
    assert residuals == pytest.approx(
        np.array(
            [
                [1.1547005383792517, -0.816496580927726],
                [-0.816496580927726, 0.5773502691896258],
            ]
        ),
        abs=1e-12,
    )


def test_golden_heatmap_bytes(tmp_path):
    table = knox.build_table(GOLDEN_XYT, GOLDEN_CONFIG)
    expected, residuals = knox.expected_and_residuals(table)
    knox.emit_heatmap(tmp_path, table, expected, residuals)
    assert (tmp_path / "observed.csv").read_bytes() == (
        b"distance,[0..14),[14..28)\n"
        b"[0..100),1,0\n"
        b"[100..200),0,2\n"
    )
    assert (tmp_path / "expected.csv").read_bytes() == (
        b"distance,[0..14),[14..28)\n"
        b"[0..100),0.333333333333,0.666666666667\n"
        b"[100..200),0.666666666667,1.33333333333\n"
    )
    assert (tmp_path / "residuals.csv").read_bytes() == (
        b"distance,[0..14),[14..28)\n"
        b"[0..100),1.15470053838,-0.816496580928\n"
        b"[100..200),-0.816496580928,0.57735026919\n"
    )


def test_golden_meta(tmp_path):
    table = knox.build_table(GOLDEN_XYT, GOLDEN_CONFIG)
    expected, residuals = knox.expected_and_residuals(table)
    meta = knox.emit_heatmap(tmp_path, table, expected, residuals)
    assert meta["events"] == 3
    assert meta["total_pairs"] == 3
    assert meta["binned_pairs"] == 3
    assert meta["dropped_pairs"] == 0
    assert meta["permutations"] == 0  # no p-value grid emitted
    assert (tmp_path / "knox_meta.json").exists()
    assert not (tmp_path / "pvalues.csv").exists()


# ------------------------------------------------------------- dense oracle


def test_matches_dense_oracle_clamp_and_drop():
    rng = np.random.default_rng(13)
    for overflow in ("clamp", "drop"):
        for n in (2, 3, 50, 400):
            xyt = random_events(rng, n)
            config = knox.KnoxConfig(
                distance_step=250.0,
                time_step=7.0,
                distance_bins=6,
                time_bins=5,
                overflow=overflow,
            )
            table = knox.build_table(xyt, config)
            want = dense_knox_table(xyt, 250.0, 7.0, 6, 5, overflow)
            assert np.array_equal(table.observed, want), (overflow, n)


def test_dense_oracle_on_auto_bins():
    rng = np.random.default_rng(14)
    xyt = random_events(rng, 300)
    table = knox.build_table(xyt, knox.KnoxConfig())
    cfg = table.config
    want = dense_knox_table(
        xyt, cfg.distance_step, cfg.time_step, cfg.distance_bins, cfg.time_bins
    )
    assert np.array_equal(table.observed, want)


def test_auto_bin_resolution():
    xyt = np.array([[0.0, 0.0, 0.0], [250.0, 0.0, 5.0]])
    table = knox.build_table(xyt, knox.KnoxConfig())
    assert table.config.distance_bins == 3  # ceil(250 / 100)
    assert table.config.time_bins == 1  # ceil(5 / 14)
    coincident = knox.build_table(np.zeros((3, 3)), knox.KnoxConfig())
    assert coincident.config.distance_bins == 1
    assert coincident.config.time_bins == 1


@pytest.mark.parametrize("step, refuse", [(1e-4, True), (1e-12, False)], ids=["memory", "size"])
def test_unallocatable_table_names_its_bins(monkeypatch, step, refuse):
    # 1e-4 asks for hundreds of TiB, which a host may refuse or overcommit, so a
    # stub refuses every table past 2**31 cells as a host out of memory would;
    # 1e-12 is past numpy's largest array size, which numpy refuses before
    # allocating anything
    xyt = random_events(np.random.default_rng(5), 50)
    if refuse:
        real = np.zeros

        def zeros(shape, *args, **kwargs):
            if np.prod(shape, dtype=float) > 2**31:
                raise MemoryError("Unable to allocate")
            return real(shape, *args, **kwargs)

        monkeypatch.setattr(knox.np, "zeros", zeros)
    config = knox.KnoxConfig(distance_step=step, time_step=step)
    bins = knox._resolve_bins(xyt, config)
    with pytest.raises(ValueError) as info:
        knox.build_table(xyt, config)
    message = str(info.value)
    assert f"{bins.distance_bins} distance bins x {bins.time_bins} time bins" in message
    assert "raise distance_step / time_step or set distance_bins / time_bins" in message


# ------------------------------------------------------------- conservation


def test_clamp_conserves_all_pairs_and_margins():
    rng = np.random.default_rng(15)
    xyt = random_events(rng, 500)
    table = knox.build_table(
        xyt, knox.KnoxConfig(distance_bins=8, time_bins=6, overflow="clamp")
    )
    n = len(xyt)
    assert int(table.observed.sum()) == n * (n - 1) // 2
    assert table.dropped_pairs == 0
    expected, _ = knox.expected_and_residuals(table)
    obs = table.observed.astype(float)
    assert expected.sum(axis=1) == pytest.approx(obs.sum(axis=1), rel=1e-9)
    assert expected.sum(axis=0) == pytest.approx(obs.sum(axis=0), rel=1e-9)


def test_drop_policy_counts_dropped_pairs():
    config = knox.KnoxConfig(
        distance_step=100.0,
        time_step=14.0,
        distance_bins=1,
        time_bins=1,
        overflow="drop",
    )
    table = knox.build_table(GOLDEN_XYT, config)
    assert table.observed.tolist() == [[1]]
    assert table.dropped_pairs == 2
    assert int(table.observed.sum()) + table.dropped_pairs == table.total_pairs


def test_residuals_zero_when_expected_equals_observed():
    # a single occupied row makes the independence model exact
    xyt = np.array(
        [[0.0, 0.0, 0.0], [10.0, 0.0, 20.0], [20.0, 0.0, 40.0]]
    )
    table = knox.build_table(
        xyt, knox.KnoxConfig(distance_bins=1, time_bins=4)
    )
    expected, residuals = knox.expected_and_residuals(table)
    assert expected == pytest.approx(table.observed.astype(float))
    assert residuals == pytest.approx(np.zeros_like(expected))


# -------------------------------------------------------------- Monte Carlo


def test_identity_permutation_gives_p_one():
    rng = np.random.default_rng(16)
    xyt = random_events(rng, 60)
    config = knox.KnoxConfig(distance_bins=4, time_bins=4, permutations=25)
    table = knox.build_table(xyt, config)
    pvalues = knox.monte_carlo(
        xyt, table, permute=lambda r, n: np.arange(n)
    )
    assert np.all(pvalues == 1.0)


def test_pvalues_bounded_and_quantised():
    rng = np.random.default_rng(17)
    xyt = random_events(rng, 80)
    config = knox.KnoxConfig(distance_bins=3, time_bins=3, permutations=19)
    table = knox.build_table(xyt, config)
    pvalues = knox.monte_carlo(xyt, table)
    assert np.all(pvalues >= 1.0 / 20.0)
    assert np.all(pvalues <= 1.0)
    # each p is (1 + hits) / 20 for an integer hit count
    hits = pvalues * 20.0 - 1.0
    assert hits == pytest.approx(np.round(hits), abs=1e-9)


def test_monte_carlo_deterministic_across_workers():
    rng = np.random.default_rng(18)
    xyt = random_events(rng, 120)
    config = knox.KnoxConfig(distance_bins=4, time_bins=3, permutations=30, seed=7)
    table = knox.build_table(xyt, config)
    single = knox.monte_carlo(xyt, table, workers=1)
    for workers in (2, 4, 8):
        assert np.array_equal(single, knox.monte_carlo(xyt, table, workers=workers))


def dense_monte_carlo(xyt, observed, config, perms):
    """p-values from the dense oracle table of every permuted round."""
    ge = np.zeros(observed.shape, dtype=np.int64)
    for perm in perms:
        shuffled = xyt.copy()
        shuffled[:, 2] = xyt[perm, 2]
        ge += dense_knox_table(
            shuffled,
            config.distance_step,
            config.time_step,
            config.distance_bins,
            config.time_bins,
            config.overflow,
        ) >= observed
    return (1.0 + ge) / (len(perms) + 1.0)


@pytest.mark.parametrize("overflow", ["clamp", "drop"])
@pytest.mark.parametrize("rows", [1, 7])
def test_monte_carlo_matches_dense_oracle(monkeypatch, overflow, rows):
    # chunks of 1 and 7 rows make every round cross many chunk boundaries
    monkeypatch.setattr(knox, "_chunk_rows", lambda n_cols: rows)
    rng = np.random.default_rng(23)
    xyt = random_events(rng, 45, extent=1500.0, days=60.0)
    config = knox.KnoxConfig(
        distance_step=250.0,
        time_step=7.0,
        distance_bins=4,
        time_bins=5,
        permutations=12,
        seed=4,
        overflow=overflow,
    )
    table = knox.build_table(xyt, config)
    observed = dense_knox_table(xyt, 250.0, 7.0, 4, 5, overflow)
    assert np.array_equal(table.observed, observed)
    perms = [np.random.default_rng(4 + r).permutation(len(xyt)) for r in range(12)]
    want = dense_monte_carlo(xyt, observed, config, perms)
    for workers in (1, 2, 4):
        got = knox.monte_carlo(xyt, table, workers=workers)
        assert np.array_equal(got, want), workers


def test_monte_carlo_honours_permute_hook(monkeypatch):
    monkeypatch.setattr(knox, "_chunk_rows", lambda n_cols: 7)
    rng = np.random.default_rng(24)
    xyt = random_events(rng, 40, extent=1500.0, days=60.0)
    config = knox.KnoxConfig(
        distance_step=250.0, time_step=7.0, distance_bins=4, time_bins=5, permutations=9
    )
    table = knox.build_table(xyt, config)
    perms = [np.roll(np.arange(len(xyt))[::-1], 3 * r + 1) for r in range(9)]
    want = dense_monte_carlo(xyt, table.observed, config, perms)
    for workers in (1, 2):
        got = knox.monte_carlo(
            xyt, table, workers=workers, permute=lambda r, n: perms[r]
        )
        assert np.array_equal(got, want), workers
    assert not np.array_equal(want, knox.monte_carlo(xyt, table))


def test_monte_carlo_rounds_share_table_under_fast_switching(monkeypatch):
    # more threads than cores, switching every microsecond, all adding into
    # one round table: a lost or doubled update would change a p-value
    monkeypatch.setattr(knox, "_chunk_rows", lambda n_cols: 3)
    rng = np.random.default_rng(25)
    xyt = random_events(rng, 60)
    config = knox.KnoxConfig(distance_bins=4, time_bins=4, permutations=40, seed=2)
    table = knox.build_table(xyt, config)
    single = knox.monte_carlo(xyt, table, workers=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = knox.monte_carlo(xyt, table, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(single, threaded)


def test_monte_carlo_seed_changes_rounds():
    rng = np.random.default_rng(19)
    xyt = random_events(rng, 100)
    base = knox.KnoxConfig(distance_bins=4, time_bins=4, permutations=40, seed=1)
    table = knox.build_table(xyt, base)
    p_one = knox.monte_carlo(xyt, table)
    other = knox.KnoxConfig(distance_bins=4, time_bins=4, permutations=40, seed=2)
    p_two = knox.monte_carlo(xyt, knox.build_table(xyt, other))
    assert not np.array_equal(p_one, p_two)


def test_clustered_data_flags_near_cell():
    # plant tight space-time clusters over sparse background; the (0, 0)
    # cell must come out with a positive residual and a small p-value
    rng = np.random.default_rng(20)
    background = random_events(rng, 150, extent=20000.0, days=365.0)
    blobs = []
    for _ in range(8):
        cx, cy, ct = rng.random(3) * [20000.0, 20000.0, 365.0]
        blob = np.column_stack(
            [
                rng.normal(cx, 20.0, 10),
                rng.normal(cy, 20.0, 10),
                rng.normal(ct, 1.0, 10),
            ]
        )
        blobs.append(blob)
    xyt = np.vstack([background] + blobs)
    config = knox.KnoxConfig(permutations=99, seed=3)
    table = knox.build_table(xyt, config)
    expected, residuals = knox.expected_and_residuals(table)
    pvalues = knox.monte_carlo(xyt, table)
    assert residuals[0, 0] > 0
    assert pvalues[0, 0] <= 0.05


# ------------------------------------------------------------------- output


def test_grid_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    xyt = random_events(rng, 90)
    config = knox.KnoxConfig(distance_bins=5, time_bins=4, permutations=9)
    table = knox.build_table(xyt, config)
    expected, residuals = knox.expected_and_residuals(table)
    pvalues = knox.monte_carlo(xyt, table)
    knox.emit_heatmap(tmp_path, table, expected, residuals, pvalues)
    assert np.array_equal(knox.load_grid(tmp_path / "observed.csv"), table.observed)
    assert knox.load_grid(tmp_path / "expected.csv") == pytest.approx(
        expected, rel=1e-10
    )
    assert knox.load_grid(tmp_path / "residuals.csv") == pytest.approx(
        residuals, rel=1e-10
    )
    assert knox.load_grid(tmp_path / "pvalues.csv") == pytest.approx(
        pvalues, rel=1e-10
    )


def test_emit_is_deterministic(tmp_path):
    rng = np.random.default_rng(22)
    xyt = random_events(rng, 70)
    config = knox.KnoxConfig(distance_bins=3, time_bins=3, permutations=5)
    table = knox.build_table(xyt, config)
    expected, residuals = knox.expected_and_residuals(table)
    pvalues = knox.monte_carlo(xyt, table)
    for name in ("one", "two"):
        knox.emit_heatmap(tmp_path / name, table, expected, residuals, pvalues)
    for fname in ("observed.csv", "expected.csv", "residuals.csv", "pvalues.csv", "knox_meta.json"):
        assert (tmp_path / "one" / fname).read_bytes() == (
            tmp_path / "two" / fname
        ).read_bytes(), fname
