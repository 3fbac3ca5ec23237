"""Projection tests: anchors, independent-series agreement, round-trips."""

from __future__ import annotations

import math

import numpy as np
import pytest

from nearchain import projection
from oracles import snyder_utm, utm_to_latlon

# Independently computed with the classic truncated-series formulation
# (tests/oracles.py) before the production implementation was finalized.
REFERENCE_POINTS = [
    (40.7128, -74.0060, 18, 583959.3723, 4507350.9984),
    (51.5074, -0.1278, 30, 699316.2343, 5710163.7585),
    (-33.8688, 151.2093, 56, 334368.6336, 6250948.3453),
    (35.6762, 139.6503, 54, 377855.7760, 3948874.3922),
    (41.8781, -87.6298, 16, 447741.9167, 4636433.6842),
]

QUARTER_MERIDIAN = 10_001_965.7293  # WGS84 equator-to-pole arc, meters


def project(lat: float, lon: float, zone: int) -> tuple[float, float]:
    """One point through the array projection."""
    (e,), (n,) = projection.project_many([lat], [lon], zone)
    return float(e), float(n)


def test_zone_for_lon():
    assert projection.zone_for_lon(-177.0) == 1
    assert projection.zone_for_lon(0.0) == 31
    assert projection.zone_for_lon(-0.0001) == 30
    assert projection.zone_for_lon(179.9999) == 60
    assert projection.zone_for_lon(180.0) == 1  # wraps to -180
    assert projection.zone_for_lon(-87.6298) == 16


def test_central_meridian():
    assert projection.central_meridian(31) == 3
    assert projection.central_meridian(1) == -177
    assert projection.central_meridian(60) == 177
    with pytest.raises(ValueError):
        projection.central_meridian(0)
    with pytest.raises(ValueError):
        projection.central_meridian(61)


def test_central_meridian_equator_anchor():
    easting, northing = project(0.0, 3.0, 31)
    assert easting == pytest.approx(500000.0, abs=1e-6)
    assert northing == pytest.approx(0.0, abs=1e-6)


def _meridian_arc_quadrature(lat_deg: float) -> float:
    # Gauss-Legendre integration of the meridian curvature radius.
    a, f = 6378137.0, 1.0 / 298.257223563
    e2 = f * (2 - f)
    nodes, weights = np.polynomial.legendre.leggauss(60)
    half = math.radians(lat_deg) / 2.0
    phi = half * (nodes + 1.0)
    integrand = a * (1 - e2) / (1 - e2 * np.sin(phi) ** 2) ** 1.5
    return float(half * (weights * integrand).sum())


def test_central_meridian_arc_matches_rectifying_radius():
    # On the central meridian the northing is k0 times the meridian arc;
    # the quarter meridian pins the rectifying-radius series.
    assert projection.RECT_RADIUS * math.pi / 2 == pytest.approx(
        QUARTER_MERIDIAN, abs=1e-3
    )
    for lat in (10.0, 45.0, 80.0):
        _, northing = project(lat, 3.0, 31)
        assert northing == pytest.approx(
            0.9996 * _meridian_arc_quadrature(lat), abs=1e-6
        )


def test_hemisphere_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(200):
        lat = rng.uniform(0.01, 79.9)
        zone = int(rng.integers(1, 61))
        lon = projection.central_meridian(zone) + rng.uniform(-3, 3)
        e_n, n_n = project(lat, lon, zone)
        e_s, n_s = project(-lat, lon, zone)
        assert e_s == pytest.approx(e_n, abs=1e-6)
        assert n_s == pytest.approx(10_000_000.0 - n_n, abs=1e-6)


def test_reference_points():
    for lat, lon, zone, easting, northing in REFERENCE_POINTS:
        e, n = project(lat, lon, zone)
        assert e == pytest.approx(easting, abs=0.01), (lat, lon)
        assert n == pytest.approx(northing, abs=0.01), (lat, lon)


def test_agreement_with_independent_series():
    rng = np.random.default_rng(202)
    worst_near = worst_far = 0.0
    for _ in range(500):
        lat = rng.uniform(-79.0, 83.0)
        zone = int(rng.integers(1, 61))
        cm = projection.central_meridian(zone)
        near = cm + rng.uniform(-2.0, 2.0)
        far = cm + rng.uniform(-3.0, 3.0)
        for lon, near_cm in ((near, True), (far, False)):
            oe, on = snyder_utm(lat, lon, zone)
            pe, pn = project(lat, lon, zone)
            diff = max(abs(oe - pe), abs(on - pn))
            if near_cm:
                worst_near = max(worst_near, diff)
            else:
                worst_far = max(worst_far, diff)
    assert worst_near <= 0.002, f"near-meridian disagreement {worst_near} m"
    assert worst_far <= 0.010, f"3-degree disagreement {worst_far} m"


def test_round_trip_inverse():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        lat = rng.uniform(-79.9, 83.9)
        zone = int(rng.integers(1, 61))
        lon = projection.central_meridian(zone) + rng.uniform(-3.0, 3.0)
        e, n = project(lat, lon, zone)
        lat2, lon2 = utm_to_latlon(e, n, zone, southern=lat < 0)
        e2, n2 = project(lat2, lon2, zone)
        worst = max(worst, abs(e2 - e), abs(n2 - n))
    assert worst < 1e-4, f"round-trip deviation {worst} m"


def test_band_limits():
    with pytest.raises(ValueError):
        project(-80.0, 3.0, 31)
    with pytest.raises(ValueError):
        project(84.0, 3.0, 31)
    # inside the open band both extremes project
    project(-79.999, 3.0, 31)
    project(83.999, 3.0, 31)


def test_project_many_rejects_out_of_band():
    with pytest.raises(ValueError):
        projection.project_many(np.array([10.0, 85.0]), np.array([3.0, 3.0]), 31)
