"""Series-level analytics for the quantum connection.

This module turns connection matrices into numbers and differential
operators:

* the quantum-period recursion for the flat section attached to the
  point class, solved degree by degree over the rationals;
* the hbar-rescaling bookkeeping for the period series;
* reduction of a connection matrix to a scalar operator in theta =
  q d/dq via a cyclic covector, with exact rational-function entries;
* the kernel/complement splitting of the six-dimensional quadric's
  8x8 connection;
* the rank-one equivariant (Bessel) series, its second-order operator,
  and floating-point Wronskian diagnostics -- the only non-exact
  computation in the package;
* the symbolic Jacobian-ring check for projective space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .qchev import (
    ConnMatrix,
    LaurentPoly,
    fw_matrix,
    matrix_relation,
    mihalcea_equivariant,
)
from .rootsys import CartanType, RootDatum, build_root_datum
from .weyl import (
    CosetReps,
    bruhat_covers_up,
    minuscule_coset_reps,
    multiply,
    pi_P,
    reflection,
)


# --------------------------------------------------------------------------
# the period recursion
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodSeries:
    """Coefficients c_0..c_D of the quantum period, plus (optionally) the
    full flat-section vectors degree by degree."""

    coefficients: Tuple[Fraction, ...]
    basis_trace: Optional[Tuple[Tuple[Fraction, ...], ...]] = None


def _linear_split(M: ConnMatrix):
    """Write M = D1 + q*D2 with rational matrices D1, D2, each given as
    rows of nonzero (column, value) pairs."""
    if M.variables != ("q",):
        raise ValueError("expected a matrix over the single variable q")
    d1, d2 = [], []
    for row in M.entries:
        r1, r2 = [], []
        for c, entry in enumerate(row):
            for exps, coeff in entry.terms.items():
                if exps == (0,):
                    r1.append((c, coeff))
                elif exps == (1,):
                    r2.append((c, coeff))
                else:
                    raise ValueError("matrix entry is not linear in q")
        d1.append(tuple(r1))
        d2.append(tuple(r2))
    return tuple(d1), tuple(d2)


def _sparse_matvec(rows, v):
    return tuple(sum(a * v[c] for c, a in row) for row in rows)


def _nilpotent_solve(d1, d: int, b):
    """Solve (d*Id - D1) x = b by the terminating Neumann series
    x = sum_k D1^k b / d^{k+1}; raises if D1 fails to be nilpotent."""
    scale = Fraction(1, d)
    acc = tuple(x * scale for x in b)
    power = b
    for _ in range(len(b) + 1):
        power = _sparse_matvec(d1, power)
        if all(x == 0 for x in power):
            return acc
        scale /= d
        acc = tuple(a + x * scale for a, x in zip(acc, power))
    raise ValueError("classical part of the connection is not nilpotent")


def _check_nilpotent(d1) -> None:
    """Reject a classical part that is not nilpotent.

    All geometric inputs have nonnegative classical entries, for which
    nilpotency is exactly acyclicity of the support digraph (checked by
    peeling vertices without incoming edges); a negative entry already
    signals a wrong input.
    """
    incoming = [0] * len(d1)
    for row in d1:
        for c, x in row:
            if x < 0:
                raise ValueError("classical part has a negative entry")
            incoming[c] += 1
    ready = [r for r, k in enumerate(incoming) if k == 0]
    peeled = 0
    while ready:
        r = ready.pop()
        peeled += 1
        for c, _ in d1[r]:
            incoming[c] -= 1
            if incoming[c] == 0:
                ready.append(c)
    if peeled != len(d1):
        raise ValueError("classical part of the connection is not nilpotent")


def quantum_period(M: ConnMatrix, D: int) -> PeriodSeries:
    """Quantum period of a minuscule connection matrix to order q^D.

    Solves (d*Id - D1) S_d = D2 S_{d-1} starting from the point class
    (the top basis vector); c_d is the top coefficient of S_d.
    """
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    d1, d2 = _linear_split(M)
    _check_nilpotent(d1)
    n = M.size
    top = n - 1
    s = tuple(Fraction(int(i == top)) for i in range(n))
    coeffs = [Fraction(1)]
    trace = [s]
    for d in range(1, D + 1):
        s = _nilpotent_solve(d1, d, _sparse_matvec(d2, s))
        trace.append(s)
        coeffs.append(s[top])
    for c in coeffs:
        if c < 0:
            raise AssertionError("period coefficients must be nonnegative")
    return PeriodSeries(tuple(coeffs), tuple(trace))


def quantum_period_case(ct: str, node: int, D: int) -> PeriodSeries:
    """Convenience wrapper: the period of the named minuscule space."""
    d = build_root_datum(CartanType.parse(ct))
    reps = minuscule_coset_reps(d, node)
    return quantum_period(fw_matrix(d, reps, node), D)


def bruhat_path_count(d: RootDatum, reps: CosetReps, node: int) -> int:
    """Number of saturated Bruhat chains in W^P from pi_P(w_top s_gamma)
    up to w_top: an independent route to the first period coefficient."""
    lev = reps.parabolic
    top = reps.reps[-1]
    start = pi_P(d, lev.I_P, multiply(d, top, reflection(d, lev.gamma)))
    counts = {reps.index_of(start): 1}
    for i, w in enumerate(reps.reps):
        amount = counts.get(i, 0)
        if amount == 0:
            continue
        for _beta, above in bruhat_covers_up(d, lev, w):
            j = reps.index_of(above)
            counts[j] = counts.get(j, 0) + amount
    return counts.get(len(reps.reps) - 1, 0)


# --------------------------------------------------------------------------
# hbar rescaling
# --------------------------------------------------------------------------

def hbar_rescale(series: PeriodSeries, c: int):
    """Period in the variable q/hbar^c: pairs (c_d, hbar exponent -c*d)."""
    return tuple((coeff, -c * d)
                 for d, coeff in enumerate(series.coefficients))


def hbar_rescale_consistent(M: ConnMatrix, c: int, D: int) -> bool:
    """Re-run the recursion with M replaced by M/hbar symbolically and
    compare against the closed-form rescaling of the plain period."""
    plain = quantum_period(M, D)
    want = hbar_rescale(plain, c)
    d1, d2 = _linear_split(M)
    n = M.size
    V = ("hbar",)
    inv_h = LaurentPoly(V, {(-1,): Fraction(1)})
    zero = LaurentPoly(V)

    def matvec_poly(m, vec):
        out = []
        for row in m:
            acc = zero
            for c, a in row:
                if not vec[c].is_zero():
                    acc = acc + vec[c] * a
            out.append(acc)
        return tuple(out)

    top = n - 1
    s = tuple(LaurentPoly.const(V, int(i == top)) for i in range(n))
    for d in range(1, D + 1):
        term = tuple(e * inv_h for e in matvec_poly(d2, s))
        scale = Fraction(1, d)
        acc = tuple(e * scale for e in term)
        for _ in range(n + 1):
            term = tuple(e * inv_h for e in matvec_poly(d1, term))
            if all(e.is_zero() for e in term):
                break
            scale /= d
            acc = tuple(a + e * scale for a, e in zip(acc, term))
        else:
            raise ValueError("classical part is not nilpotent")
        s = acc
        coeff, hexp = want[d]
        if s[top] != LaurentPoly(V, {(hexp,): coeff}):
            return False
    return True


# --------------------------------------------------------------------------
# rational functions of q and the cyclic-vector reduction
# --------------------------------------------------------------------------

def _ptrim(t):
    t = list(t)
    while t and t[-1] == 0:
        t.pop()
    return tuple(t)


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim(tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    ))


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _pderiv(a):
    return _ptrim(tuple(a[i] * i for i in range(1, len(a))))


def _pdivmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    rem = list(_ptrim(a))
    lead = b[-1]
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        f = rem[-1] / lead
        quot[k] = f
        for i, y in enumerate(b):
            rem[k + i] -= f * y
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return _ptrim(quot), _ptrim(rem)


def _pgcd(a, b):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    if not a:
        return ()
    return tuple(x / a[-1] for x in a)


@dataclass(frozen=True)
class RatFunc:
    """Rational function of q: coprime numerator/denominator coefficient
    tuples (low degree first), denominator monic."""

    num: tuple
    den: tuple

    @staticmethod
    def make(num, den=(1,)) -> "RatFunc":
        num = _ptrim(tuple(Fraction(x) for x in num))
        den = _ptrim(tuple(Fraction(x) for x in den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return RatFunc((), (Fraction(1),))
        g = _pgcd(num, den)
        if len(g) > 1:
            num, _ = _pdivmod(num, g)
            den, _ = _pdivmod(den, g)
        lead = den[-1]
        num = tuple(x / lead for x in num)
        den = tuple(x / lead for x in den)
        return RatFunc(num, den)

    @staticmethod
    def const(v) -> "RatFunc":
        return RatFunc.make((Fraction(v),))

    def is_zero(self) -> bool:
        return not self.num

    def __add__(self, other):
        return RatFunc.make(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other):
        return RatFunc.make(
            _padd(_pmul(self.num, other.den),
                  _pneg(_pmul(other.num, self.den))),
            _pmul(self.den, other.den),
        )

    def __mul__(self, other):
        return RatFunc.make(_pmul(self.num, other.num),
                            _pmul(self.den, other.den))

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc.make(_pmul(self.num, other.den),
                            _pmul(self.den, other.num))

    def __neg__(self):
        return RatFunc(_pneg(self.num), self.den)

    def theta(self) -> "RatFunc":
        """q d/dq of the rational function."""
        q = (Fraction(0), Fraction(1))
        diff = _padd(_pmul(_pderiv(self.num), self.den),
                     _pneg(_pmul(self.num, _pderiv(self.den))))
        return RatFunc.make(_pmul(q, diff), _pmul(self.den, self.den))


def _entry_to_ratfunc(p: LaurentPoly) -> RatFunc:
    if p.is_zero():
        return RatFunc.make(())
    exps = [e[0] for e in p.terms]
    shift = min(min(exps), 0)
    num = [Fraction(0)] * (max(exps) - shift + 1)
    for (e,), coeff in p.terms.items():
        num[e - shift] = coeff
    den = [Fraction(0)] * (-shift + 1)
    den[-1] = Fraction(1)
    return RatFunc.make(tuple(num), tuple(den))


@dataclass(frozen=True)
class ScalarOperator:
    """Monic operator sum p_k theta^k with rational-function
    coefficients; order = the theta-degree."""

    coefficients: Tuple[RatFunc, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def cyclic_scalar_operator(M: ConnMatrix, start) -> ScalarOperator:
    """Minimal monic operator in theta annihilating the pairing of the
    flat sections with the covector ``start`` (an index or a vector).

    Rows r_0 = start, r_{k+1} = theta(r_k) + r_k M are accumulated until
    the first linear dependency over Q(q); its coefficients are the
    operator's.
    """
    n = M.size
    if isinstance(start, int):
        row = [RatFunc.const(int(i == start)) for i in range(n)]
    else:
        if len(start) != n:
            raise ValueError("covector length mismatch")
        row = [RatFunc.const(x) for x in start]
    mrf = [[_entry_to_ratfunc(M.entry(r, c)) for c in range(n)]
           for r in range(n)]

    # Gaussian elimination state: (pivot column, reduced row, combo) where
    # combo expresses the reduced row in terms of the original r_k's.
    basis = []
    rows_made = 0
    while True:
        combo = {rows_made: RatFunc.const(1)}
        work = list(row)
        for pivot, brow, bcombo in basis:
            f = work[pivot]
            if f.is_zero():
                continue
            for j in range(n):
                work[j] = work[j] - f * brow[j]
            for k, cval in bcombo.items():
                combo[k] = combo.get(k, RatFunc.const(0)) - f * cval
        pivot = next((j for j in range(n) if not work[j].is_zero()), None)
        if pivot is None:
            order = rows_made
            return ScalarOperator(tuple(
                RatFunc.const(1) if k == order
                else combo.get(k, RatFunc.const(0))
                for k in range(order + 1)
            ))
        if rows_made > n:
            raise RuntimeError("no dependency found; input inconsistent")
        inv = work[pivot]
        work = [x / inv for x in work]
        combo = {k: v / inv for k, v in combo.items()}
        basis.append((pivot, work, combo))
        nxt = []
        for j in range(n):
            acc = row[j].theta()
            for i in range(n):
                if not row[i].is_zero() and not mrf[i][j].is_zero():
                    acc = acc + row[i] * mrf[i][j]
            nxt.append(acc)
        row = nxt
        rows_made += 1


def operator_annihilates(op: ScalarOperator, series: PeriodSeries,
                         shift: Fraction = Fraction(0)) -> bool:
    """Exact check that sum p_k theta^k kills the truncated series,
    with theta acting on q^{shift+m} by (shift+m).

    Denominators are cleared first; each q-power of the result that is
    determined by the known coefficients must vanish.
    """
    common = (Fraction(1),)
    for c in op.coefficients:
        _, r = _pdivmod(common, c.den)
        if r:
            common = _pmul(common, c.den)
    cleared = []
    for c in op.coefficients:
        q, r = _pdivmod(common, c.den)
        assert not r
        cleared.append(_pmul(c.num, q))
    coeffs = series.coefficients
    for m in range(len(coeffs)):
        total = Fraction(0)
        for k, poly in enumerate(cleared):
            for j, pj in enumerate(poly):
                if pj == 0 or j > m:
                    continue
                total += pj * ((shift + m - j) ** k) * coeffs[m - j]
        if total != 0:
            return False
    return True


# --------------------------------------------------------------------------
# the six-dimensional quadric
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class D4Split:
    """Kernel line and invariant complement of the 8x8 quadric matrix."""

    kernel: Tuple[int, ...]
    basis: Tuple[Tuple[int, ...], ...]
    restricted: ConnMatrix


def d4_split(M: ConnMatrix) -> D4Split:
    """Split off the kernel line spanned by the difference of the two
    middle classes and restrict M to the 7-dimensional complement."""
    if M.size != 8:
        raise ValueError("expected the 8-dimensional quadric matrix")
    V = M.variables
    zero = LaurentPoly(V)
    for r in range(8):
        if M.entry(r, 3) != M.entry(r, 4):
            raise ArithmeticError("middle columns disagree; no kernel line")
    kernel = (0, 0, 0, 1, -1, 0, 0, 0)

    # constant vectors killed identically in q: the joint kernel of the
    # classical and quantum parts, which must be exactly this one line
    stacked = [[dict(row).get(c, Fraction(0)) for c in range(8)]
               for part in _linear_split(M) for row in part]
    rank = 0
    for col in range(8):
        piv = next((r for r in range(rank, 16) if stacked[r][col] != 0),
                   None)
        if piv is None:
            continue
        stacked[rank], stacked[piv] = stacked[piv], stacked[rank]
        lead = stacked[rank][col]
        stacked[rank] = [x / lead for x in stacked[rank]]
        for r in range(16):
            if r != rank and stacked[r][col] != 0:
                f = stacked[r][col]
                stacked[r] = [a - f * b
                              for a, b in zip(stacked[r], stacked[rank])]
        rank += 1
    if rank != 7:
        raise ArithmeticError(
            f"expected a one-line constant kernel, found nullity {8 - rank}"
        )

    basis = (
        (1, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 1),
    )
    cols = []
    for b in basis:
        image = []
        for r in range(8):
            acc = zero
            for c in range(8):
                if b[c]:
                    acc = acc + M.entry(r, c) * Fraction(b[c])
            image.append(acc)
        # rows 3 and 4 both express the coefficient of the summed middle
        # class; invariance demands they agree
        if image[3] != image[4]:
            raise ArithmeticError("complement is not invariant")
        cols.append([image[0], image[1], image[2], image[3],
                     image[5], image[6], image[7]])
    entries = tuple(
        tuple(cols[c][r] for c in range(7)) for r in range(7)
    )
    restricted = ConnMatrix(basis=None, variables=V, entries=entries)
    return D4Split(kernel, basis, restricted)


# --------------------------------------------------------------------------
# equivariant rank one: Bessel series
# --------------------------------------------------------------------------

def equivariant_bessel(h, D: int) -> PeriodSeries:
    """Coefficients prod_{j<=k} 1/(j(j+2h)) of the rank-one equivariant
    period, cross-checked against the 2x2 connection [[-h, q], [1, h]]
    order by order (with the q^h prefactor folded into the eigenvalue
    shift)."""
    h = Fraction(h)
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    two_h = 2 * h
    if two_h.denominator == 1 and two_h <= -1:
        raise ValueError("2h must not be a negative integer")
    coeffs = [Fraction(1)]
    for k in range(1, D + 1):
        coeffs.append(coeffs[-1] / (k * (k + two_h)))

    v = (Fraction(0), Fraction(1))
    for k in range(1, D + 1):
        rhs0 = v[1]  # D2 v = (v[1], 0)
        # ((h+k)I - D1) = [[2h+k, 0], [-1, k]] with D1 = [[-h,0],[1,h]]
        x0 = rhs0 / (two_h + k)
        x1 = x0 / k
        v = (x0, x1)
        if v[1] != coeffs[k]:
            raise AssertionError("matrix recursion disagrees with the "
                                 "product formula")
    return PeriodSeries(tuple(coeffs))


def _substitute_h(entry: LaurentPoly, value: Fraction) -> LaurentPoly:
    """Specialize the h1 variable of a (q, h1) polynomial to a rational."""
    out = {}
    for (eq, eh), coeff in entry.terms.items():
        term = coeff * (Fraction(value) ** eh)
        out[(eq,)] = out.get((eq,), Fraction(0)) + term
    return LaurentPoly(("q",), {k: v for k, v in out.items() if v != 0})


def bessel_operator_from_matrix(h) -> ScalarOperator:
    """Scalar operator of the rank-one equivariant connection at a
    rational value of the equivariant parameter: theta^2 - (q + h^2)."""
    h = Fraction(h)
    d = build_root_datum(CartanType("A", 1))
    M = mihalcea_equivariant(d, fw_matrix(d, minuscule_coset_reps(d, 1), 1),
                             1)
    entries = tuple(
        tuple(_substitute_h(M.entry(r, c), 2 * h) for c in range(2))
        for r in range(2)
    )
    m2 = ConnMatrix(basis=None, variables=("q",), entries=entries)
    return cyclic_scalar_operator(m2, 1)


# --------------------------------------------------------------------------
# Bessel numerics (the only floating-point corner)
# --------------------------------------------------------------------------

def _bessel_i_series(y: float, nu: float) -> float:
    """I_nu(y) by its power series; past k ~ y the terms fall at least
    geometrically, so the tail is negligible once a term drops below
    1e-20 of the running sum."""
    half = y / 2.0
    term = half ** nu / math.gamma(nu + 1.0)
    total = term
    k = 0
    while True:
        k += 1
        term *= (half * half) / (k * (k + nu))
        total += term
        if k > y and term < 1e-20 * max(total, 1.0):
            return total
        if k > 500:
            raise RuntimeError("Bessel-I series failed to converge")


def _adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                      tol: float) -> float:
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fmid = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)

    def rec(a, b, fa, fb, fm, whole, tol, depth):
        if depth > 40:
            raise RuntimeError("quadrature did not converge")
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (rec(a, m, fa, fm, flm, left, tol / 2.0, depth + 1)
                + rec(m, b, fm, fb, frm, right, tol / 2.0, depth + 1))

    return rec(a, b, fa, fb, fmid, whole, tol, 0)


def _bessel_k_integral(y: float, nu: float) -> float:
    """K_nu(y) = integral_0^inf exp(-y cosh t) cosh(nu t) dt, truncated
    where the integrand drops below 1e-22 and integrated adaptively."""
    def g(t: float) -> float:
        return math.exp(-y * math.cosh(t)) * math.cosh(nu * t)

    T = 1.0
    while g(T) > 1e-22:
        T += 0.5
        if T > 700.0:
            raise RuntimeError("integrand truncation failed")
    return _adaptive_simpson(g, 0.0, T, 1e-13)


def bessel_numeric_checks(y: float, nu: float) -> dict:
    """Wronskian diagnostic I_nu K_{nu+1} + I_{nu+1} K_nu = 1/y."""
    if not 0 < y <= 50:
        raise ValueError("y must lie in (0, 50]")
    i0 = _bessel_i_series(y, nu)
    i1 = _bessel_i_series(y, nu + 1.0)
    k0 = _bessel_k_integral(y, nu)
    k1 = _bessel_k_integral(y, nu + 1.0)
    wronskian = i0 * k1 + i1 * k0
    return {
        "i_nu": i0,
        "i_nu_plus_1": i1,
        "k_nu": k0,
        "k_nu_plus_1": k1,
        "wronskian": wronskian,
        "wronskian_error": abs(wronskian - 1.0 / y),
    }


# --------------------------------------------------------------------------
# Jacobian-ring check for projective space
# --------------------------------------------------------------------------

def jacobian_pn_check(n: int) -> bool:
    """Verify the projective-space Jacobian-ring statements.

    Three exact computations: (i) the critical-locus substitution turns
    each relation x_i + h_i - h_{n+1} - q/(x_1..x_n) into zero once
    x_j = x - h_j and q = prod_j (x - h_j); (ii) the equivariant
    connection satisfies prod_w (M - diag_w Id) = q Id; (iii) at h = 0
    the matrix relation X^{n+1} = q holds.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # (i) symbolic critical locus, variables x, h_1..h_{n+1}
    V = ("x",) + tuple(f"h{i}" for i in range(1, n + 2))
    nv = len(V)

    def factor(i):
        ex = [0] * nv
        ex[0] = 1
        eh = [0] * nv
        eh[i] = 1
        return LaurentPoly(V, {tuple(ex): Fraction(1),
                               tuple(eh): Fraction(-1)})

    q_poly = LaurentPoly.const(V, 1)
    for i in range(1, n + 2):
        q_poly = q_poly * factor(i)
    prod_first_n = LaurentPoly.const(V, 1)
    for i in range(1, n + 1):
        prod_first_n = prod_first_n * factor(i)
    # cleared relation, same for every i because x_i + h_i = x:
    # (x - h_{n+1}) * (x_1..x_n) - q
    lhs = factor(n + 1) * prod_first_n - q_poly
    if not lhs.is_zero():
        return False

    # (ii) equivariant matrix: product of (M - diag Id) equals q Id
    d = build_root_datum(CartanType("A", n))
    Mq = fw_matrix(d, minuscule_coset_reps(d, 1), 1)
    M = mihalcea_equivariant(d, Mq, 1)
    Vm = M.variables
    size = M.size
    diag_sum = LaurentPoly(Vm)
    prod = None
    for i in range(size):
        diag = M.entry(i, i)
        diag_sum = diag_sum + diag
        shifted = ConnMatrix(
            basis=None, variables=Vm,
            entries=tuple(
                tuple(M.entry(r, c) - diag if r == c else M.entry(r, c)
                      for c in range(size))
                for r in range(size)
            ),
        )
        prod = shifted if prod is None else prod.mat_mul(shifted)
    if not diag_sum.is_zero():
        return False
    qv = LaurentPoly.var(Vm, "q")
    for r in range(size):
        for c in range(size):
            want = qv if r == c else LaurentPoly(Vm)
            if prod.entry(r, c) != want:
                return False

    # (iii) non-equivariant matrix relation X^{n+1} = q
    Vq = ("X", "q")
    rel = (LaurentPoly(Vq, {(n + 1, 0): Fraction(1)})
           - LaurentPoly.var(Vq, "q"))
    return matrix_relation(Mq, rel)


def series_to_json(series: PeriodSeries) -> list:
    """Period coefficients as exact num/den strings."""
    return [str(c) for c in series.coefficients]
