"""Explicit constants entering the stretched-gradient estimates.

Everything here is closed-form arithmetic in the exponent window
``1 < t_minus <= p(x) <= t_plus``, the dimension ``n`` and the stretch
exponent ``beta``.  The critical exponent

    beta_star(n, t) = -1 + (n - 2)(t - 1) / (2(n - 1))

separates admissible stretches from inadmissible ones; the remaining
constants are one concrete instantiation of the Young/Cauchy-Schwarz
bookkeeping behind the pointwise and integral bounds, chosen deterministic
and tuning-free.  Audits report measured ratios, so any looseness in this
instantiation stays visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "AdmissibilityError",
    "ConstantSet",
    "ExponentWindow",
    "beta_star",
    "constant_set",
    "eta_star",
]


class AdmissibilityError(ValueError):
    """The stretch exponent is at or below the critical exponent."""


@dataclass(frozen=True)
class ExponentWindow:
    """Bounds ``1 < t_minus <= p(x) <= t_plus`` on a region."""

    t_minus: float
    t_plus: float

    def __post_init__(self):
        for name in ("t_minus", "t_plus"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if not self.t_minus > 1.0:
            raise ValueError(f"t_minus must exceed 1, got {self.t_minus}")
        if not self.t_minus <= self.t_plus:
            raise ValueError(f"need t_minus <= t_plus, got {self.t_minus} > {self.t_plus}")


@dataclass(frozen=True)
class ConstantSet:
    """The constants of the pointwise and integral stretched-gradient bounds."""

    beta_star: float
    eta_star: float
    c_star: float
    c_tilde_star: float
    c_sharp: float

    def __post_init__(self):
        if not self.eta_star > 0:
            raise ValueError("eta_star must be positive")
        if self.c_star < 1 or self.c_tilde_star < 1 or self.c_sharp < 1:
            raise ValueError("multiplicative constants must be >= 1")


def beta_star(n: int, t: float) -> float:
    """Critical stretch exponent; identically -1 in dimension 2."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if not t > 1.0:
        raise ValueError(f"exponent must exceed 1, got {t}")
    return -1.0 + (n - 2) * (t - 1.0) / (2.0 * (n - 1.0))


def eta_star(window: ExponentWindow, n: int, beta: float) -> float:
    """Deterministic weight satisfying both admissibility constraints strictly.

    With slack ``Q = (n-1)(t_minus-1)(beta - beta_star)/2`` and
    ``Mq = max((t_minus-2)^2, (t_plus-2)^2)`` the rule returns ``cap/2`` when
    ``Mq = 0`` and ``min(cap, Q/Mq)/2`` otherwise, where ``cap`` is ``1/2``
    for ``beta >= 0`` and the negative-beta ceiling
    ``min(1+beta, (n-1)(beta-beta_star)/(-2 beta))/2`` otherwise.
    """
    critical = beta_star(n, window.t_plus)
    if not beta > critical:
        raise AdmissibilityError(
            f"beta = {beta} must exceed the critical exponent {critical} "
            f"for (n={n}, t_plus={window.t_plus})"
        )
    slack = 0.5 * (n - 1.0) * (window.t_minus - 1.0) * (beta - critical)
    mq = max((window.t_minus - 2.0) ** 2, (window.t_plus - 2.0) ** 2)
    if beta >= 0.0:
        cap = 0.5
    else:
        cap = 0.5 * min(1.0 + beta, (n - 1.0) / (-2.0 * beta) * (beta - critical))
    if mq == 0.0:
        return 0.5 * cap
    return 0.5 * min(cap, slack / mq)


def constant_set(window: ExponentWindow, n: int, beta: float) -> ConstantSet:
    """Assemble the full constant set for ``(t_minus, t_plus, n, beta)``.

    ``c_star`` multiplies the sigma_2 term of the pointwise bound,
    ``c_tilde_star`` its zeroth-order data term, and ``c_sharp`` the
    right-hand side of the cutoff energy (Caccioppoli) bound.
    """
    if not math.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    critical = beta_star(n, window.t_plus)
    eta = eta_star(window, n, beta)
    m_beta = (1.0 + abs(beta)) ** 2
    c_star = m_beta * 4.0 * (n - 1.0 + eta) / eta
    # Young-chain data constant, with the working weight eta/2 substituted.
    # c0 bounds |-(n-2+eta)(p-2) + (n-1+eta) beta| over the exponent window
    # (affine in p, so the endpoints suffice).
    c0 = max(
        abs(-(n - 2.0 + eta) * (window.t_minus - 2.0) + (n - 1.0 + eta) * beta),
        abs(-(n - 2.0 + eta) * (window.t_plus - 2.0) + (n - 1.0 + eta) * beta),
    )
    c_k1 = 4.0 / eta + 4.0 * c0**2 / eta + 0.5 * (n - 2.0) + 0.5 * eta
    c_tilde_star = m_beta * (4.0 / eta) * c_k1
    c_sharp = 2.0 * c_star**2 * n**2 * (n - 1.0) ** 2 + 2.0 * c_tilde_star
    return ConstantSet(
        beta_star=critical,
        eta_star=eta,
        c_star=c_star,
        c_tilde_star=c_tilde_star,
        c_sharp=c_sharp,
    )
