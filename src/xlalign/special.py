"""F and studentized-range tails for the ANOVA, ANCOVA and Tukey HSD tables.

This is the only module that touches scipy, and it imports ``scipy.special``
inside its functions: the first p-value in a process pays that import (about
0.3 s), and a command that computes none never loads scipy. On a 2-core
x86-64 machine with one BLAS thread, ``import xlalign`` takes 0.24 s this way
against 0.57 s with ``scipy.special`` imported at module level (medians of
15 runs). ``scipy.stats`` stays out altogether: importing it costs about
1.25 s, some 0.95 s more than ``scipy.special``.

F-test tails come from ``scipy.special.fdtrc``. With two groups the
studentized range is sqrt(2) |T_df|, so its tail is the exact two-sided
Student-t tail ``2 stdtr(df, -q / sqrt(2))``; a two-group Tukey p-value
equals the F-test p-value of the same groups. Three or more groups use
nested 64-point Gauss-Legendre panels over ``ndtr`` (absolute error target
1e-6). Their nodes are built at the first such test, so ``import xlalign``
does not load ``numpy.polynomial`` either (about 6 ms per process on the
same machine, with the nodes). Their upper tail is computed as 1 - cdf,
which cannot resolve small p at large df: at df = 5048 the tail is off by
about 7e-12 in absolute terms (k = 3 and 7, against
``scipy.stats.studentized_range``), so p below about 1e-10 is off by more
than 10% and never reads below 6.0e-12.
``scipy.stats.studentized_range`` is about twice as fast per call as the
quadrature, but would bring that import with it, so the Tukey tail stays
here.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(64)


def _panel_nodes(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    gl_nodes, gl_weights = _gauss_legendre()
    edges = np.linspace(lo, hi, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    mids = (edges[:-1] + edges[1:]) / 2.0
    nodes = (mids[:, None] + half * gl_nodes[None, :]).ravel()
    weights = np.tile(half * gl_weights, n_panels)
    return nodes, weights


def f_sf(f_stat: float, df_effect: float, df_error: float) -> float:
    """Upper-tail probability of the F distribution."""
    from scipy.special import fdtrc

    return float(fdtrc(df_effect, df_error, f_stat))


@functools.cache
def _z_panels() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nodes z and weights of the inner integral, with phi(z) and Phi(z)."""
    from scipy.special import ndtr

    z, wz = _panel_nodes(-8.5, 8.5, 12)
    return z, wz, np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi), ndtr(z)


def _normal_range_cdf(r: np.ndarray, k: int) -> np.ndarray:
    """P(range of k iid standard normals <= r), vectorized over r >= 0."""
    # inner = Phi(z + r) - Phi(z), clipped against fp cancellation, built in
    # one (len(r), len(z)) buffer
    from scipy.special import ndtr

    z, wz, phi, ndtr_z = _z_panels()
    inner = np.add.outer(r, z)
    ndtr(inner, out=inner)
    inner -= ndtr_z
    np.clip(inner, 0.0, 1.0, out=inner)
    inner = inner ** (k - 1)
    inner *= phi
    return np.clip(k * (inner @ wz), 0.0, 1.0)


def studentized_range_cdf(q: float, k: int, df: float) -> float:
    """P(Q <= q) for the studentized range of k groups with df error dof."""
    if k < 2:
        raise ValueError("studentized range needs k >= 2 groups")
    if df < 1:
        raise ValueError("df must be >= 1")
    if q <= 0.0:
        return 0.0
    if k == 2:
        return 1.0 - _two_group_sf(q, df)
    spread = 12.0 / math.sqrt(2.0 * df)
    lo = max(0.0, 1.0 - spread)
    hi = 1.0 + spread
    s, ws = _panel_nodes(lo, hi, 16)
    ln_coeff = math.log(2.0) + 0.5 * df * math.log(df / 2.0) - math.lgamma(df / 2.0)
    log_s = np.log(s, out=np.full_like(s, -np.inf), where=s > 0)
    density = np.exp(ln_coeff + (df - 1.0) * log_s - 0.5 * df * s * s)
    value = float((density * _normal_range_cdf(q * s, k)) @ ws)
    return min(max(value, 0.0), 1.0)


def _two_group_sf(q: float, df: float) -> float:
    # the range of two groups is sqrt(2) |T_df|
    from scipy.special import stdtr

    return float(2.0 * stdtr(df, -q / math.sqrt(2.0)))


def studentized_range_sf(q: float, k: int, df: float) -> float:
    """Upper-tail probability of the studentized range distribution."""
    if k == 2 and df >= 1 and q > 0.0:
        return _two_group_sf(q, df)
    return 1.0 - studentized_range_cdf(q, k, df)
