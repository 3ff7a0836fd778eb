"""Tanh-sinh (double-exponential) quadrature with endpoint-safe evaluation.

An integral over a finite interval (a, b) is transformed by

    x = m + c * tanh((pi/2) * sinh(tau)),   m = (a+b)/2,   c = (b-a)/2,

which pushes the endpoints to tau = +/-inf at double-exponential speed.  The
trapezoid rule in tau then converges geometrically for integrands analytic on
the open interval, including integrable power singularities at the endpoints.

Endpoint-safe evaluation protocol
---------------------------------
Every integrand is called as ``f(x, da, db)`` where

    da = x - a,   db = b - x

are the endpoint distances computed *without cancellation* from

    1 + tanh(s) = 2 e^{2s} / (1 + e^{2s})      (s <= 0)
    1 - tanh(s) = 2 e^{-2s} / (1 + e^{-2s})    (s >= 0).

Singular endpoint factors such as ``(x - a)**-0.5`` or ``sin(x) - sin(a)``
must be formed from da/db, not from x: x rounds onto an endpoint at the
outer nodes (46 of the 193 nodes of levels 0-4 have x == 1 on (0, 1)),
while da and db stay > 0.  Node distances go down to ~1e-275 * c, far
below any representable cancellation, which is what lets the rule reach
~1e-14 on inverse-square-root endpoints in double precision.  An
integrand with no endpoint singularity simply ignores ``da`` and ``db``.

Evaluation order
----------------
Level 0 holds the nodes tau = -6..6 at step 1 and level k > 0 the odd
multiples of 2**-k, so each level halves the step of the one before.  Every
spec runs at least to level 4, so levels 0-4 (193 nodes) are evaluated in a
single integrand call; each later level is a call of its own.  The levels
are still summed, tested for convergence and checked for non-finite values
one at a time and in order: a bad value at a level the loop never reaches
raises nothing.  ``QuadratureResult.n_evals`` counts the values computed, so
it is at least 193.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple, Tuple

import numpy as np

from . import NumericError

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "QuadratureError",
    "integrate",
    "DEFAULT_SPEC",
]

# Largest |tau|.  At tau = 6.0 the inner exponent is 2s ~ 633, so the node
# distances ~ e^{-633} ~ 1e-275 are still normal doubles (no underflow to 0).
_T_MAX = 6.0


class QuadratureError(ValueError, NumericError):
    """Raised for non-finite integrand values or invalid quadrature input."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance/effort policy for :func:`integrate`.

    Attributes
    ----------
    rel_tol, abs_tol:
        Convergence: accepted when the level-to-level change satisfies
        ``error <= max(rel_tol*|value|, abs_tol)``.
    max_level:
        Maximum number of step halvings (>= 4).  Level k uses step 2**-k.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_level: int = 12

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0 and self.abs_tol > 0.0):
            raise QuadratureError("rel_tol and abs_tol must be positive")
        if self.max_level < 4:
            raise QuadratureError("max_level must be >= 4")


@dataclass(frozen=True)
class QuadratureResult:
    """Value and diagnostics of one integration.

    ``converged`` guarantees ``error_estimate <= max(rel_tol*|value|, abs_tol)``.
    ``n_evals`` counts the integrand values computed, all 193 nodes of
    levels 0-4 included even when the result converged before level 4.
    """

    value: float
    error_estimate: float
    levels_used: int
    converged: bool
    n_evals: int


DEFAULT_SPEC = QuadratureSpec()

# ---------------------------------------------------------------------------
# node tables
# ---------------------------------------------------------------------------
# Per level: (alpha, beta, weight) for each node, all in unit-halfwidth form:
#   da = c * alpha,  db = c * beta,  x = m + c * (alpha - 1) = m + c * (1 - beta)
#   contribution = c * h * weight * f(x)
# Level 0 holds tau = j*1.0; level k>0 holds the odd multiples of 2**-k.

_NodeTable = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _tanh_sinh_nodes(level: int) -> _NodeTable:
    h = 2.0 ** (-level)
    if level == 0:
        tau = np.arange(-_T_MAX, _T_MAX + 0.5 * h, h)
    else:
        odd = np.arange(1, int(_T_MAX / h) + 1, 2)
        tau = np.concatenate([-odd[::-1], odd]) * h
    s = 0.5 * np.pi * np.sinh(tau)
    # stable 1 +/- tanh(s); exp argument is <= 0 always
    e = np.exp(-2.0 * np.abs(s))
    small = 2.0 * e / (1.0 + e)      # 1 - tanh(|s|)
    big = 2.0 / (1.0 + e)            # 1 + tanh(|s|)
    alpha = np.where(s < 0, small, big)   # da/c
    beta = np.where(s < 0, big, small)    # db/c
    # dx/dtau = c * (pi/2) cosh(tau) * sech(s)^2, sech^2 = (1-tanh)(1+tanh)
    weight = 0.5 * np.pi * np.cosh(tau) * (small * big)
    return alpha, beta, weight


# Levels 0.._BATCH_LEVEL (the floor of QuadratureSpec.max_level) share one
# integrand call on their 193 nodes; each later level is a call of its own.
_BATCH_LEVEL = 4


class _Block(NamedTuple):
    """The nodes of one integrand call, levels in order.

    Level ``first + j`` of a block that starts at level ``first`` is the
    slice ``starts[j]:starts[j + 1]``; ``weights[j]`` is its weight slice.
    """

    alpha: np.ndarray
    beta: np.ndarray
    from_a: np.ndarray  # alpha <= beta: x is built from the nearer endpoint a
    starts: Tuple[int, ...]
    weights: Tuple[np.ndarray, ...]


_BLOCK_CACHE: Dict[int, _Block] = {}


def _block_nodes(level: int) -> _Block:
    """The block that starts at ``level``: levels 0.._BATCH_LEVEL at level 0,
    otherwise ``level`` alone."""
    block = _BLOCK_CACHE.get(level)
    if block is None:
        levels = range(_BATCH_LEVEL + 1) if level == 0 else (level,)
        tables = [_tanh_sinh_nodes(k) for k in levels]
        alpha, beta, weight = (np.concatenate(col) for col in zip(*tables))
        starts = tuple(itertools.accumulate((t[0].size for t in tables), initial=0))
        weights = tuple(weight[lo:hi] for lo, hi in zip(starts, starts[1:]))
        block = _BLOCK_CACHE[level] = _Block(alpha, beta, alpha <= beta, starts, weights)
    return block


def integrate(
    f: Callable,
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> QuadratureResult:
    """Integrate ``f`` over the open interval (a, b).

    Levels 0 to 4 (193 nodes) are evaluated in one call of ``f``, since
    every spec runs at least that far; each later level is one call.  The
    levels are then summed and tested in order as if evaluated one by one:
    a non-finite value raises only when its level is reached, so a result
    that converges before that level never sees it.  ``n_evals`` counts the
    integrand values computed, all 193 of the first call included.

    Parameters
    ----------
    f:
        Vectorized integrand ``f(x, da, db)`` with ``da = x - a`` and
        ``db = b - x`` supplied cancellation-free.
    a, b:
        Finite interval endpoints with ``a < b``.
    spec:
        Tolerances / effort; see :class:`QuadratureSpec`.

    Returns
    -------
    QuadratureResult
        ``converged`` is False when tolerances were not met within
        ``max_level``; the caller decides whether that is fatal.

    Raises
    ------
    QuadratureError
        For invalid intervals or non-finite integrand values (reporting the
        offending abscissa).
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise QuadratureError(f"interval endpoints must be finite, got ({a}, {b})")
    if not a < b:
        raise QuadratureError(f"require a < b, got ({a}, {b})")
    c = 0.5 * (b - a)
    n_evals = 0
    value = math.nan
    err = math.inf
    level = 0
    for level in range(spec.max_level + 1):
        if level == 0 or level > _BATCH_LEVEL:
            block = _block_nodes(level)
            first = level
            da = c * block.alpha
            db = c * block.beta
            # Build x from the nearer endpoint; it may round onto that endpoint,
            # while da and db stay positive.
            x = np.where(block.from_a, a + da, b - db)
            with np.errstate(all="ignore"):
                y = np.asarray(f(x, da, db), dtype=float)
            if y.ndim == 0:
                y = np.full_like(x, float(y))
            n_evals += y.size
            finite = np.isfinite(y)
            first_bad = y.size if finite.all() else int(np.argmin(finite))
        j = level - first
        lo, hi = block.starts[j], block.starts[j + 1]
        if first_bad < hi:
            i = first_bad
            raise QuadratureError(
                f"integrand returned non-finite value {y[i]!r} at x={x[i]!r} "
                f"(distance to endpoints: da={da[i]:.3e}, db={db[i]:.3e})"
            )
        h = 2.0 ** (-level)
        partial = h * c * float(np.dot(block.weights[j], y[lo:hi]))
        if level == 0:
            value = partial
        else:
            new_value = 0.5 * value + partial
            err = abs(new_value - value)
            value = new_value
            if err <= max(spec.rel_tol * abs(value), spec.abs_tol):
                return QuadratureResult(value, err, level, True, n_evals)
    return QuadratureResult(value, err, level, False, n_evals)
