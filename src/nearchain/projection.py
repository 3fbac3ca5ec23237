"""Transverse Mercator (UTM) projection on the WGS84 ellipsoid.

The forward conversion uses the sixth-order flattening-series expansion of
the conformal-latitude formulation.  Within a UTM zone the series truncation
error is far below a millimeter, much tighter than the centimeter-level
agreement the test suite demands; the inverse series, which only checks it,
lives with the test suite's oracles.
"""

from __future__ import annotations

import math

import numpy as np

WGS84_A = 6378137.0
WGS84_F = 1.0 / 298.257223563
UTM_K0 = 0.9996
FALSE_EASTING = 500000.0
FALSE_NORTHING_SOUTH = 10000000.0

#: Valid UTM latitude band (degrees), open interval.
LAT_MIN = -80.0
LAT_MAX = 84.0

_N = WGS84_F / (2.0 - WGS84_F)
_E2 = WGS84_F * (2.0 - WGS84_F)
_E = math.sqrt(_E2)

#: Rectifying radius: the quarter meridian equals RECT_RADIUS * pi / 2.
RECT_RADIUS = WGS84_A / (1.0 + _N) * (1.0 + _N**2 / 4.0 + _N**4 / 64.0 + _N**6 / 256.0)

# Series coefficients (order n^6) mapping conformal to rectifying latitude.
_ALPHA = (
    _N / 2.0 - 2.0 * _N**2 / 3.0 + 5.0 * _N**3 / 16.0 + 41.0 * _N**4 / 180.0
    - 127.0 * _N**5 / 288.0 + 7891.0 * _N**6 / 37800.0,
    13.0 * _N**2 / 48.0 - 3.0 * _N**3 / 5.0 + 557.0 * _N**4 / 1440.0
    + 281.0 * _N**5 / 630.0 - 1983433.0 * _N**6 / 1935360.0,
    61.0 * _N**3 / 240.0 - 103.0 * _N**4 / 140.0 + 15061.0 * _N**5 / 26880.0
    + 167603.0 * _N**6 / 181440.0,
    49561.0 * _N**4 / 161280.0 - 179.0 * _N**5 / 168.0 + 6601661.0 * _N**6 / 7257600.0,
    34729.0 * _N**5 / 80640.0 - 3418889.0 * _N**6 / 1995840.0,
    212378941.0 * _N**6 / 319334400.0,
)


def zone_for_lon(lon: float) -> int:
    """UTM zone number (1..60) containing longitude ``lon`` in degrees."""
    lon = ((lon + 180.0) % 360.0) - 180.0
    return int((lon + 180.0) // 6.0) + 1


def central_meridian(zone: int) -> float:
    """Central meridian (degrees) of a UTM zone."""
    if not 1 <= int(zone) <= 60:
        raise ValueError(f"invalid UTM zone {zone}; expected 1..60")
    return int(zone) * 6.0 - 183.0


def project_many(lats, lons, zone: int) -> tuple[np.ndarray, np.ndarray]:
    """Project geographic points to UTM (easting, northing) arrays in meters.

    ``lats`` and ``lons`` are degrees, arrays of equal length.  Scale factor
    0.9996, false easting 500 km, false northing 0 m in the northern
    hemisphere and 10 000 km in the southern.  Raises ``ValueError`` naming
    the first latitude outside the UTM band (-80, 84).
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    bad = ~((lats > LAT_MIN) & (lats < LAT_MAX))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(
            f"latitude {lats[i]} at index {i} outside UTM band ({LAT_MIN}, {LAT_MAX})"
        )
    lat = np.deg2rad(lats)
    dlon = np.deg2rad(lons - central_meridian(zone))
    tau = np.tan(lat)
    sigma = np.sinh(_E * np.arctanh(_E * tau / np.hypot(1.0, tau)))
    taup = tau * np.hypot(1.0, sigma) - sigma * np.hypot(1.0, tau)
    cdl = np.cos(dlon)
    xip = np.arctan2(taup, cdl)
    etap = np.arcsinh(np.sin(dlon) / np.hypot(taup, cdl))
    xi, eta = xip, etap
    for j, a in enumerate(_ALPHA, start=1):
        xi = xi + a * np.sin(2.0 * j * xip) * np.cosh(2.0 * j * etap)
        eta = eta + a * np.cos(2.0 * j * xip) * np.sinh(2.0 * j * etap)
    easting = FALSE_EASTING + UTM_K0 * RECT_RADIUS * eta
    northing = UTM_K0 * RECT_RADIUS * xi
    northing = np.where(lat < 0.0, FALSE_NORTHING_SOUTH + northing, northing)
    return np.atleast_1d(easting), np.atleast_1d(northing)

