"""Numerical construction of the singly periodic genus-one helicoid.

The package solves the two period conditions that select the surface inside a
two-parameter family of Weierstrass data on rhombic tori, evaluates the
resulting immersion, emits watertight triangle meshes of the translational
fundamental domain, and verifies the geometric properties of the surface
(monotone height and convex projection of the slit curve, graph property of
the half-plane patch, boundary decomposition inside the slab, the limit
constants of the vertical period, and the sign obstructions outside the
physical branch).

Module map
----------
``params``         closed-form parameter relations (rho, lambda) -> (Lambda, r, R, T)
``quadrature``     tanh-sinh quadrature engine with endpoint-safe evaluation
``period_solver``  the two period integrals and the nested root solve
``torus``          rhombic-torus curve: w on each sheet, closed-form xi-edge chart, half-turns
``weierstrass``    Weierstrass forms, path/contour integration, period checks
``mesh``           patch meshing, fundamental-domain assembly, exporters
``verify``         verification report over all computable surface claims
``cli``            command-line front end (solve / periods / mesh / curves / verify)
"""

from __future__ import annotations

__version__ = "0.1.0"


class NumericError(Exception):
    """Base of every error that reports a numeric failure of a computation
    (the CLI exits 1 on it), as opposed to bad input to the CLI."""


def blocks(rows, size: int):
    """``rows`` as consecutive slices of ``size`` rows, for a stage that forms
    or reads a large array a block at a time."""
    return (rows[s : s + size] for s in range(0, len(rows), size))


from .params import SurfaceParams  # noqa: E402,F401  (params imports NumericError)

__all__ = ["NumericError", "SurfaceParams", "__version__", "blocks"]
