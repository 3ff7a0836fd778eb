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

__all__ = [
    "ParameterDomainError",
    "lambda_from_Lambda",
    "Lambda_from_lambda",
    "r_from",
    "R_from",
    "period_T",
    "SurfaceParams",
]

# ``rho`` must stay this far inside (-pi/2, pi/2); at the boundary R and the
# torus degenerate.
_RHO_MARGIN = 1e-9


class ParameterDomainError(ValueError, NumericError):
    """Raised when a parameter is outside its admissible open domain."""


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not math.isfinite(rho) or abs(rho) >= math.pi / 2 - _RHO_MARGIN:
        raise ParameterDomainError(
            f"rho={rho!r} outside admissible open interval "
            f"(-pi/2 + {_RHO_MARGIN:g}, pi/2 - {_RHO_MARGIN:g})"
        )
    return rho


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


def Lambda_from_lambda(lam: float) -> float:
    """Forward map ``lam -> lam + 1/lam`` (valid for any lam > 0)."""
    lam = float(lam)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ParameterDomainError(f"lambda={lam!r} must be positive")
    return lam + 1.0 / lam


def r_from(rho: float, Lam: float) -> float:
    """End modulus ``r = sqrt(2 cos rho / (Lam - 2 sin rho))``."""
    rho = _check_rho(rho)
    Lam = float(Lam)
    den = Lam - 2.0 * math.sin(rho)
    if den <= 0.0:
        raise ParameterDomainError(
            f"Lambda - 2 sin(rho) = {den!r} must be positive (rho={rho}, Lambda={Lam})"
        )
    return math.sqrt(2.0 * math.cos(rho) / den)


def R_from(rho: float) -> float:
    """Branch modulus ``R = sqrt((1 + sin rho)/cos rho)``.

    The value diverges as ``rho -> pi/2``; arguments outside the admissible
    open interval raise :class:`ParameterDomainError` rather than returning a
    finite lie (the formula overflows honestly inside the interval's closure).
    """
    rho = _check_rho(rho)
    return math.sqrt((1.0 + math.sin(rho)) / math.cos(rho))


def period_T(rho: float, lam: float) -> float:
    """Vertical translation period ``T(rho, lam)``.

    ``T = pi sqrt(cos rho) (1 - lam^2) / sqrt(Lam/2 - sin rho)`` with
    ``Lam = lam + 1/lam``.  Positive for ``lam in (0,1)``; for the diagnostic
    branch ``lam > 1`` the signed value (negative) is returned unchanged.
    """
    rho = _check_rho(rho)
    Lam = Lambda_from_lambda(lam)
    den = 0.5 * Lam - math.sin(rho)
    if den <= 0.0:
        raise ParameterDomainError(
            f"Lambda/2 - sin(rho) = {den!r} must be positive (rho={rho}, lambda={lam})"
        )
    return math.pi * math.sqrt(math.cos(rho)) * (1.0 - lam * lam) / math.sqrt(den)


@dataclass(frozen=True)
class SurfaceParams:
    """Validated, immutable parameter bundle with cached derived quantities.

    Use :meth:`create` for the physical branch (``0 < rho < pi/2``,
    ``0 < lam < 1``) and :meth:`diagnostic` for out-of-branch studies
    (``lam > 1`` or ``rho <= 0``); diagnostic instances are accepted by the
    analysis routines but must never be meshed.
    """

    rho: float
    lam: float
    diagnostic: bool = False
    Lambda: float = field(init=False)
    r: float = field(init=False)
    R: float = field(init=False)
    T: float = field(init=False)

    def __post_init__(self) -> None:
        rho = _check_rho(self.rho)
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
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "Lambda", Lambda_from_lambda(lam))
        object.__setattr__(self, "r", r_from(rho, self.Lambda))
        object.__setattr__(self, "R", R_from(rho))
        object.__setattr__(self, "T", period_T(rho, lam))

    @classmethod
    def create(cls, rho: float, lam: float) -> "SurfaceParams":
        """Physical-branch constructor (rho in (0, pi/2), lam in (0, 1))."""
        return cls(rho=rho, lam=lam, diagnostic=False)

    @classmethod
    def diagnostic_branch(cls, rho: float, lam: float) -> "SurfaceParams":
        """Out-of-branch constructor for sign/monotonicity diagnostics."""
        return cls(rho=rho, lam=lam, diagnostic=True)
