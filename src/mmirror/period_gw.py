"""Series-level analytics for the quantum connection.

This module turns connection matrices into numbers and differential
operators:

* the quantum-period recursion for the flat section attached to the
  point class, solved in integers over one common denominator by one
  triangular sweep per degree, in the order that peels the nilpotent
  classical part, and the exact integer check that an operator kills
  the period;
* the hbar-rescaling bookkeeping for the period series;
* reduction of a connection matrix to a scalar operator in theta =
  q d/dq via a cyclic covector, by fraction-free elimination over Z[q]
  (one exact division per step, rational functions only at the end);
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
from functools import reduce
from itertools import zip_longest
from operator import truediv
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
    reflect_coset,
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
    d1 = [[] for _ in range(M.size)]
    d2 = [[] for _ in range(M.size)]
    for (r, c), entry in sorted(M.cells.items()):
        for exps, coeff in entry.terms.items():
            if exps == (0,):
                d1[r].append((c, coeff))
            elif exps == (1,):
                d2[r].append((c, coeff))
            else:
                raise ValueError("matrix entry is not linear in q")
    return tuple(map(tuple, d1)), tuple(map(tuple, d2))


def _sparse_matvec(rows, v):
    return tuple(sum(a * v[c] for c, a in row) for row in rows)


def _check_nilpotent(d1) -> list:
    """Reject a classical part that is not nilpotent; return the peel order.

    All geometric inputs have nonnegative classical entries, for which
    nilpotency is exactly acyclicity of the support digraph (checked by
    peeling vertices without incoming edges); a negative entry already
    signals a wrong input.  Every row r is peeled before each column c
    with D1[r, c] != 0, so D1 is strictly triangular in this order.
    """
    incoming = [0] * len(d1)
    for row in d1:
        for c, x in row:
            if x < 0:
                raise ValueError("classical part has a negative entry")
            incoming[c] += 1
    ready = [r for r, k in enumerate(incoming) if k == 0]
    order = []
    while ready:
        r = ready.pop()
        order.append(r)
        for c, _ in d1[r]:
            incoming[c] -= 1
            if incoming[c] == 0:
                ready.append(c)
    if len(order) != len(d1):
        raise ValueError("classical part of the connection is not nilpotent")
    return order


def _peel_solve(d1, order, d: int, b):
    """Solve (d*Id - D1) x = b by one sweep in reverse peel order:
    x_r = (b_r + sum_c D1[r, c] x_c) / d, where every x_c on the right
    is already known."""
    x = list(b)
    inv_d = Fraction(1, d)
    for r in reversed(order):
        if d1[r]:
            x[r] = x[r] + sum(x[c] * a for c, a in d1[r])
        x[r] = x[r] * inv_d
    return tuple(x)


def quantum_period(M: ConnMatrix, D: int) -> PeriodSeries:
    """Quantum period of a minuscule connection matrix to order q^D.

    Solves (d*Id - D1) S_d = D2 S_{d-1} starting from the point class
    (the top basis vector), one triangular sweep per degree in the peel
    order of D1; c_d is the top coefficient of S_d.  The sweep runs in
    integers, with S_{d-1} = X/Q, D1 = A1/s1 and D2 = A2/s2: for T = s1*d
    and N = 1 + the longest D1 chain, Y = s2*Q*T^N*S_d solves
    Y_r = (s1*T^N*(A2 X)_r + sum_c A1[r, c] Y_c) / T exactly, as S_d at
    chain depth l has a denominator dividing s2*Q*T^(l+1).
    """
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    d1, d2 = _linear_split(M)
    order = _check_nilpotent(d1)
    s1, s2 = (math.lcm(*(a.denominator for row in part for _, a in row))
              for part in (d1, d2))
    a1, a2 = ([[(c, int(a * s)) for c, a in row] for row in part]
              for part, s in ((d1, s1), (d2, s2)))
    depth = [0] * M.size
    for r in reversed(order):
        depth[r] = max((depth[c] + 1 for c, _ in a1[r]), default=0)
    N = 1 + max(depth)
    top = M.size - 1
    X, Q = [int(i == top) for i in range(M.size)], 1
    trace = [tuple(map(Fraction, X))]
    for d in range(1, D + 1):
        T = s1 * d
        Y = [s1 * T ** N * b for b in _sparse_matvec(a2, X)]
        for r in reversed(order):
            Y[r] = _exact_div(Y[r] + sum(a * Y[c] for c, a in a1[r]), T)
        Q *= s2 * T ** N
        g = math.gcd(Q, *Y)
        X, Q = [y // g for y in Y], Q // g
        trace.append(tuple(Fraction(x, Q) for x in X))
    coeffs = tuple(s[top] for s in trace)
    if any(c < 0 for c in coeffs):
        raise AssertionError("period coefficients must be nonnegative")
    return PeriodSeries(coeffs, tuple(trace))


def quantum_period_case(ct: str, node: int, D: int) -> PeriodSeries:
    """Convenience wrapper: the period of the named minuscule space."""
    d = build_root_datum(CartanType.parse(ct))
    reps = minuscule_coset_reps(d, node)
    return quantum_period(fw_matrix(d, reps, node), D)


def bruhat_path_count(d: RootDatum, reps: CosetReps, node: int) -> int:
    """Number of saturated Bruhat chains in W^P from the coset of
    w_top s_gamma, the weight mu_top - <varpi_node, gamma-vee> w_top.gamma,
    up to w_top: an independent route to the first period coefficient."""
    top = len(reps) - 1
    start = reflect_coset(reps, top, reps.parabolic.gamma)
    counts = {start: 1}
    for i in range(len(reps)):
        amount = counts.get(i, 0)
        if amount == 0:
            continue
        for _beta, j in bruhat_covers_up(d, reps, i):
            counts[j] = counts.get(j, 0) + amount
    return counts.get(top, 0)


# --------------------------------------------------------------------------
# hbar rescaling
# --------------------------------------------------------------------------

def hbar_rescale(series: PeriodSeries, c: int):
    """Period in the variable q/hbar^c: pairs (c_d, hbar exponent -c*d)."""
    return tuple((coeff, -c * d)
                 for d, coeff in enumerate(series.coefficients))


def hbar_rescale_consistent(M: ConnMatrix, c: int, D: int) -> bool:
    """Re-run the recursion with M replaced by M/hbar symbolically and
    compare against the closed-form rescaling of the plain period.  The
    re-run is the generic sweep over Laurent polynomials, not the integer
    one of quantum_period, so the two routes share only the peel order."""
    want = hbar_rescale(quantum_period(M, D), c)
    d1, d2 = _linear_split(M)
    order = _check_nilpotent(d1)
    V = ("hbar",)
    inv_h = LaurentPoly(V, {(-1,): Fraction(1)})
    # the same sweep with D1, D2 scaled by 1/hbar
    d1, d2 = ([[(j, a * inv_h) for j, a in row] for row in part]
              for part in (d1, d2))
    top = M.size - 1
    s = tuple(LaurentPoly.const(V, int(i == top)) for i in range(M.size))
    for d in range(1, D + 1):
        s = _peel_solve(d1, order, d, _sparse_matvec(d2, s))
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
    return _ptrim(tuple(x + y for x, y in zip_longest(a, b, fillvalue=0)))


def _pneg(a):
    return tuple(-x for x in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _pderiv(a):
    return _ptrim(tuple(a[i] * i for i in range(1, len(a))))


def _pdivmod(a, b, div=truediv):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [0] * max(len(a) - len(b) + 1, 0)
    rem = list(_ptrim(a))
    lead = b[-1]
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        f = div(rem[-1], lead)
        quot[k] = f
        for i, y in enumerate(b):
            rem[k + i] -= f * y
        rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
    return _ptrim(quot), _ptrim(rem)


def _exact_div(x: int, y: int) -> int:
    """x / y for ints that must divide exactly; divmod keeps it an int."""
    f, r = divmod(x, y)
    if r:
        raise ArithmeticError("inexact integer division")
    return f


def _pexact_div(a, b):
    """Quotient of integer polynomials that must divide exactly."""
    quot, rem = _pdivmod(a, b, _exact_div)
    if rem:
        raise ArithmeticError("inexact polynomial division")
    return quot


def _primitive(p):
    """The primitive integer polynomial that is a rational multiple of p."""
    scale = math.lcm(*(Fraction(x).denominator for x in p))
    p = [int(x * scale) for x in p]
    g = math.gcd(*p)
    return tuple(x // g for x in p)


def _pgcd(a, b):
    """Monic gcd of two nonzero rational polynomials, by the heuristic gcd
    of their primitive integer parts (Char, Geddes and Gonnet, "GCDHEU"):
    the integer gcd of their values at a large xi, read back in balanced
    base-xi digits, is the gcd once its primitive part divides both."""
    a, b = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    while True:
        h = math.gcd(*(reduce(lambda v, c: v * xi + c, reversed(p), 0)
                       for p in (a, b)))
        g = []
        while h:
            g.append((h + xi // 2) % xi - xi // 2)
            h = (h - g[-1]) // xi
        g = _primitive(g)
        try:
            _pexact_div(a, g), _pexact_div(b, g)
            return tuple(Fraction(x, g[-1]) for x in g)
        except ArithmeticError:
            xi = xi * 73794 // 27011


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
        if len(den) > 1:
            g = _pgcd(num, den)
            num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
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
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == other.den:
            return RatFunc.make(_padd(self.num, other.num), self.den)
        return RatFunc.make(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other):
        return self + (-other)

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
        diff = _padd(_pmul(_pderiv(self.num), self.den),
                     _pneg(_pmul(self.num, _pderiv(self.den))))
        return RatFunc.make((0,) + diff, _pmul(self.den, self.den))


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

    Rows r_0 = start, r_{k+1} = theta(r_k) + r_k M are reduced against
    the earlier ones until the first linear dependency, whose
    coefficients are the operator's.  The elimination is fraction-free
    (Bareiss) over Z[q]: with M' = s q^m M integral, the rows
    r'_k = s^k q^{mk} r_k obey r'_{k+1} = s q^m (theta - mk) r'_k + r'_k M'.
    Every reduced entry is a minor of the r'_k, so each step ends in one
    exact division; the dependency is unwound by one fraction-free back
    substitution, and each coefficient is reduced once, at the end.
    """
    n = M.size
    if isinstance(start, int):
        if not 0 <= start < n:
            raise ValueError(f"covector index {start} out of range for a "
                             f"matrix of size {n}")
        start = [int(i == start) for i in range(n)]
    if len(start) != n:
        raise ValueError("covector length mismatch")
    start = [Fraction(x) for x in start]
    if not any(start):
        raise ValueError(f"zero covector for a matrix of size {n}")
    t = math.lcm(*(x.denominator for x in start))
    row = {j: (int(x * t),) for j, x in enumerate(start) if x}
    terms = [(e, c) for p in M.cells.values() for (e,), c in p.terms.items()]
    m = max([0] + [-e for e, _ in terms])
    s = math.lcm(*(c.denominator for _, c in terms))
    cells = [(i, j, tuple(int(p.terms.get((e - m,), 0) * s)
                          for e in range(m + max(p.terms)[0] + 1)))
             for (i, j), p in sorted(M.cells.items())]

    # basis[k] = (pivot column, b_k as {column: polynomial}, the nonzero
    # multipliers h_{k,i}: the entry at pivot i when b_i was reduced out);
    # values[k + 1] = p_k = b_k[pivot], and r'_k = p_k e_k +
    # sum_i h_{k,i} e_i with e_i = b_i / (p_{i-1} p_i)
    basis, values = [], [(1,)]
    for k in range(n + 1):
        # Bareiss steps w <- (p_i w - w[pivot_i] b_i) / p_{i-1}; a step with
        # w[pivot_i] = 0 only rescales w, so it waits for the next real one
        w, mults, last = dict(row), [], 0
        for i, (pivot, b, _) in enumerate(basis):
            f = w.get(pivot)
            if f is not None:
                p, d = values[i + 1], values[last]
                mults.append((i, f if last == i else
                              _pexact_div(_pmul(f, values[i]), d)))
                w = {j: _pexact_div(x, d) for j in w.keys() | b.keys()
                     if (x := _padd(_pmul(p, w.get(j, ())),
                                    _pneg(_pmul(f, b.get(j, ())))))}
                last = i + 1
        if not w:
            break
        if last != k:
            w = {j: _pexact_div(_pmul(values[-1], x), values[last])
                 for j, x in w.items()}
        basis.append((min(w), w, mults))
        values.append(w[min(w)])
        shifted = {j: _ptrim((0,) * m + tuple(s * (e - m * k) * c
                                              for e, c in enumerate(x)))
                   for j, x in row.items()}
        for i, j, a in cells:
            if i in row:
                shifted[j] = _padd(shifted.get(j, ()), _pmul(row[i], a))
        row = {j: x for j, x in shifted.items() if x}

    # r'_K = sum_i h_{K,i} e_i; x_i = p_{K-1} a_i in r'_K = sum_i a_i r'_i
    # is a minor and solves x_i p_i = p_{K-1} h_{K,i} - sum_{k>i} x_k h_{k,i}
    K, top = len(basis), values[-1]
    acc = {i: _pmul(top, h) for i, h in mults}
    coeffs = [RatFunc.const(1)]
    for i in reversed(range(K)):
        x = _pexact_div(acc.pop(i, ()), values[i + 1])
        for k, h in basis[i][2]:
            acc[k] = _padd(acc.get(k, ()), _pneg(_pmul(x, h)))
        # theta^i pairs with r_i = r'_i / (s^i q^{mi}); q^low cancels first
        den = (0,) * (m * (K - i)) + tuple(c * s ** (K - i) for c in top)
        low = min(j for p in (x, den) for j, c in enumerate(p) if c)
        coeffs.append(RatFunc.make(_pneg(x[low:]), den[low:]))
    return ScalarOperator(tuple(reversed(coeffs)))


def operator_annihilates(op: ScalarOperator, series: PeriodSeries,
                         shift: Fraction = Fraction(0)) -> bool:
    """Exact check that sum p_k theta^k kills the truncated series,
    with theta acting on q^{shift+m} by (shift+m).

    It runs in integers: the p_k are cleared to integer polynomials, the
    series is put over one denominator, and t = shift + m - j = u/b
    enters as sum_k p_{k,j} u^k b^(K-k), K the order.  Each q-power the
    known coefficients determine must vanish.  A float shift would round,
    so only an int or a Fraction is taken.
    """
    if not isinstance(shift, (int, Fraction)):
        raise TypeError(f"shift must be an int or a Fraction, not "
                        f"{type(shift).__name__}")
    common = (Fraction(1),)
    for c in op.coefficients:
        if _pdivmod(common, c.den)[1]:
            common = _pmul(common, c.den)
    cleared = [_pmul(c.num, _pdivmod(common, c.den)[0])
               for c in op.coefficients]
    scale = math.lcm(*(x.denominator for poly in cleared for x in poly))
    cleared = [[x.numerator * (scale // x.denominator) for x in poly]
               for poly in cleared]
    # by_power[j][K - k] = p_{k,j} b^(K-k), p_{k,j} the q^j coefficient
    a, b = shift.numerator, shift.denominator
    K, width = len(cleared) - 1, max(len(poly) for poly in cleared)
    by_power = [[cleared[k][j] * b ** (K - k) if j < len(cleared[k]) else 0
                 for k in range(K, -1, -1)]
                for j in range(width)]
    den = math.lcm(*(c.denominator for c in series.coefficients))
    coeffs = [c.numerator * (den // c.denominator)
              for c in series.coefficients]
    for m in range(len(coeffs)):
        total = 0
        for j in range(min(m + 1, width)):
            # homogeneous Horner's rule at u = a + (m - j) b
            u = a + (m - j) * b
            value = 0
            for pkj in by_power[j]:
                value = value * u + pkj
            total += value * coeffs[m - j]
        if total:
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
    if M.column(3) != M.column(4):
        raise ArithmeticError("middle columns disagree; no kernel line")
    kernel = (0, 0, 0, 1, -1, 0, 0, 0)

    # constant vectors killed identically in q: the joint kernel of the
    # classical and quantum parts, which must be exactly this one line
    rows = [[dict(row).get(c, Fraction(0)) for c in range(8)]
            for part in _linear_split(M) for row in part]
    rank = 0
    for col in range(8):
        i = next((i for i, r in enumerate(rows) if r[col]), None)
        if i is not None:
            piv = rows.pop(i)
            rows = [[a - r[col] / piv[col] * b for a, b in zip(r, piv)]
                    if r[col] else r for r in rows]
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
    cells = {}
    for k, b in enumerate(basis):
        image = [zero] * 8
        for (r, c), e in M.cells.items():
            if b[c]:
                image[r] = image[r] + e * b[c]
        # rows 3 and 4 both express the coefficient of the summed middle
        # class; invariance demands they agree
        if image[3] != image[4]:
            raise ArithmeticError("complement is not invariant")
        for r, e in enumerate(image[:4] + image[5:]):
            cells[r, k] = e
    restricted = ConnMatrix.nonzero(None, V, 7, cells)
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
    m2 = ConnMatrix.nonzero(None, ("q",), 2, {
        rc: _substitute_h(e, 2 * h) for rc, e in M.cells.items()})
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
        cells = dict(M.cells)
        for r in range(size):
            cells[r, r] = M.entry(r, r) - diag
        shifted = ConnMatrix.nonzero(None, Vm, size, cells)
        prod = shifted if prod is None else prod.mat_mul(shifted)
    if not diag_sum.is_zero():
        return False
    qv = LaurentPoly.var(Vm, "q")
    if prod.cells != {(r, r): qv for r in range(size)}:
        return False

    # (iii) non-equivariant matrix relation X^{n+1} = q
    Vq = ("X", "q")
    rel = (LaurentPoly(Vq, {(n + 1, 0): Fraction(1)})
           - LaurentPoly.var(Vq, "q"))
    return matrix_relation(Mq, rel)


def series_to_json(series: PeriodSeries) -> list:
    """Period coefficients as exact num/den strings."""
    return [str(c) for c in series.coefficients]
