"""Floating-point Bessel Wronskian diagnostics -- the only non-exact
computation in the package: I_nu by its power series, K_nu by the
trapezoid rule on its integral representation.  The exact rank-one
series and operator they accompany are in the test suite's
``reference`` module.

Kept apart from ``mmirror.period_gw`` and imported by ``mmirror bessel``
alone: without a bytecode cache every ``mmirror`` process compiles what
it imports, and this module is then compiled only where it runs.
"""

from __future__ import annotations

import math
from itertools import count


def _bessel_i_series(y: float, nu: float) -> float:
    """I_nu(y) by its power series; past k ~ y the terms fall at least
    geometrically, so the tail is negligible once a term drops to 1e-17
    of the running sum (or an underflowed sum stops at zero).  Where
    Gamma(nu + 1) overflows (nu past about 170.6) the first term starts
    from its logarithm."""
    half = y / 2.0
    try:
        term = half ** nu / math.gamma(nu + 1.0)
    except OverflowError:
        term = math.exp(nu * math.log(half) - math.lgamma(nu + 1.0))
    total = term
    k = 0
    while True:
        k += 1
        term *= (half * half) / (k * (k + nu))
        total += term
        if k > y and term <= 1e-17 * total:
            return total
        if k > 500:
            raise RuntimeError("Bessel-I series failed to converge")


def _bessel_k_integral(y: float, nu: float) -> float:
    """K_nu(y) = integral_0^inf g(t) dt, g(t) = exp(-y cosh t) cosh(nu t),
    by the trapezoid rule h (g(0)/2 + sum_k g(kh)).  g is even, entire
    and falls double-exponentially, so the error is of order
    exp(-pi^2 / h) (Trefethen and Weideman, "The exponentially convergent
    trapezoidal rule") once h resolves g's peak, whose width falls like
    1/sqrt(nu): h = min(0.1, 0.5 / sqrt(nu + 1)).  g rises to a single
    peak and then falls, as -y sinh t + nu tanh(nu t) changes sign at
    most once, so the sum stops once a term drops below 1e-22 of the
    running sum.  A term where cosh(nu t) overflows is taken as
    exp(nu t - y cosh t) (1 + exp(-2 nu t)) / 2: K may still be finite."""
    h, total = min(0.1, 0.5 / math.sqrt(nu + 1.0)), 0.5 * math.exp(-y)
    for k in count(1):
        try:
            term = math.exp(-y * math.cosh(k * h)) * math.cosh(nu * k * h)
        except OverflowError:
            t = k * h
            term = (math.exp(nu * t - y * math.cosh(t))
                    * (1.0 + math.exp(-2.0 * nu * t)) / 2.0)
        total += term
        if term < 1e-22 * total:
            return h * total


def bessel_numeric_checks(y: float, nu: float) -> dict:
    """Wronskian diagnostic I_nu K_{nu+1} + I_{nu+1} K_nu = 1/y, its error
    relative to 1/y; nu must be finite and > -1 (positive I-series terms)."""
    if not 0 < y <= 50:
        raise ValueError("y must lie in (0, 50]")
    if not -1 < nu < math.inf:
        raise ValueError(f"nu = {nu} must be finite and > -1")
    beyond = ValueError(f"I_nu or K_nu at y = {y}, nu = {nu} is beyond "
                        "float range")
    try:
        i0 = _bessel_i_series(y, nu)
        i1 = _bessel_i_series(y, nu + 1.0)
        k0 = _bessel_k_integral(y, nu)
        k1 = _bessel_k_integral(y, nu + 1.0)
    except OverflowError:
        raise beyond from None
    wronskian = i0 * k1 + i1 * k0
    report = {
        "i_nu": i0,
        "i_nu_plus_1": i1,
        "k_nu": k0,
        "k_nu_plus_1": k1,
        "wronskian": wronskian,
        "wronskian_error": abs(y * wronskian - 1.0),
    }
    # a sum can pass float range without an OverflowError: K's trapezoid
    # sum at a tiny y reaches inf, and inf * 0 is nan
    if not all(map(math.isfinite, report.values())):
        raise beyond
    return report
