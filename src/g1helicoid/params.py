"""Closed-form parameter relations for the rhombic-torus surface family.

The family is parameterized by

    rho in (-pi/2, pi/2) : conformal angle of the rhombic torus,
    lam in (0, 1)        : end-position parameter (helicoid-end punctures).

Derived quantities (all closed-form):

    Lam  = lam + 1/lam                                  (> 2)
    r^2  = 2 cos(rho) / (Lam - 2 sin(rho))              end value of |w|
    R^2  = (1 + sin(rho)) / cos(rho) = cot(pi/4 - rho/2)  branch value of |w|
    T    = pi sqrt(cos rho) (1 - lam^2) / sqrt(Lam/2 - sin rho)  vertical period

``r < R`` holds strictly for every admissible (rho, lam); ``T`` is what one
vertical period of the surface translates by, and equals the residue contour
integral of the height differential (cross-checked in the weierstrass module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import NumericError

__all__ = ["ParameterDomainError", "lambda_from_Lambda", "SurfaceParams"]

# ``rho`` must stay this far inside (-pi/2, pi/2); at the boundary R and the
# torus degenerate.
_RHO_MARGIN = 1e-9


class ParameterDomainError(ValueError, NumericError):
    """Raised when a parameter is outside its admissible open domain."""


def lambda_from_Lambda(Lam: float) -> float:
    """Invert ``Lam = lam + 1/lam`` onto the branch ``lam in (0, 1)``.

    Uses the cancellation-free form ``lam = 2 / (Lam + sqrt(Lam^2 - 4))``.

    Raises
    ------
    ParameterDomainError
        If ``Lam <= 2`` (no root in (0, 1)).
    """
    Lam = float(Lam)
    if not math.isfinite(Lam) or Lam <= 2.0:
        raise ParameterDomainError(f"Lambda={Lam!r} must exceed 2")
    return 2.0 / (Lam + math.sqrt((Lam - 2.0) * (Lam + 2.0)))


@dataclass(frozen=True)
class SurfaceParams:
    """Validated, immutable parameter bundle with cached derived quantities.

    ``SurfaceParams(rho, lam)`` is a point of the physical branch
    (``0 < rho < pi/2``, ``0 < lam < 1``); ``SurfaceParams(rho, lam,
    diagnostic=True)`` also admits the out-of-branch studies (``lam > 1`` or
    ``rho <= 0``).  Diagnostic instances are accepted by the analysis
    routines but must never be meshed.
    """

    rho: float
    lam: float
    diagnostic: bool = False
    Lambda: float = field(init=False)
    r: float = field(init=False)
    R: float = field(init=False)
    T: float = field(init=False)

    def __post_init__(self) -> None:
        rho = float(self.rho)
        if not math.isfinite(rho) or abs(rho) >= math.pi / 2 - _RHO_MARGIN:
            raise ParameterDomainError(
                f"rho={rho!r} outside admissible open interval "
                f"(-pi/2 + {_RHO_MARGIN:g}, pi/2 - {_RHO_MARGIN:g})"
            )
        lam = float(self.lam)
        if not (math.isfinite(lam) and lam > 0.0) or lam == 1.0:
            raise ParameterDomainError(f"lambda={lam!r} must be positive and != 1")
        if not self.diagnostic:
            if not 0.0 < rho:
                raise ParameterDomainError(
                    f"rho={rho!r} must lie in (0, pi/2) on the physical branch"
                )
            if not lam < 1.0:
                raise ParameterDomainError(
                    f"lambda={lam!r} must lie in (0, 1) on the physical branch"
                )
        Lam = lam + 1.0 / lam
        den = Lam - 2.0 * math.sin(rho)
        if den <= 0.0:  # Lam rounds to 2 and sin(rho) to 1 near lam = 1, rho = pi/2
            raise ParameterDomainError(
                f"Lambda - 2 sin(rho) = {den!r} must be positive (rho={rho}, Lambda={Lam})"
            )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "Lambda", Lam)
        object.__setattr__(self, "r", math.sqrt(2.0 * math.cos(rho) / den))
        object.__setattr__(self, "R", math.sqrt((1.0 + math.sin(rho)) / math.cos(rho)))
        # 0.5 * den is Lam/2 - sin(rho) to the bit: halving is exact
        T = math.pi * math.sqrt(math.cos(rho)) * (1.0 - lam * lam) / math.sqrt(0.5 * den)
        object.__setattr__(self, "T", T)
