"""Series-level analytics for the quantum connection.

This module turns connection matrices into numbers and differential
operators:

* the quantum-period recursion for the flat section attached to the
  point class, solved in integers over one common denominator by one
  triangular sweep per degree, in the order that peels the nilpotent
  classical part, and the exact integer check that an operator kills
  the period;
* reduction of a connection matrix to a scalar operator in theta =
  q d/dq from a basis covector, by fraction-free elimination over Z[q]
  (one exact division per step).  The operator keeps the elimination's
  integer polynomials P_0..P_K, with p_k = P_k / P_K, next to its
  reduced ``RatFunc`` coefficients.  The annihilation check runs on the
  P_k first, whose verdict True stands by a q-order argument, and
  decides a rejection again on the cleared coefficients, kept on the
  operator once built;
* one polynomial layer for all of it: sparse integer polynomials in q
  (exponent -> nonzero int), so a large power of q or a graded
  polynomial costs only its nonzero terms; ``RatFunc`` is only the
  output form of a coefficient.  A row of the elimination is kept by its
  support, exponent -> {column: nonzero int}; a divisor that is not a
  monomial divides it column by column through ``_sdiv``;
* one integer view of a connection matrix, a polynomial in q: s M split
  by powers of q into rows of (column, int) pairs (``_integer_parts``),
  read by the period, the cyclic reduction and the quadric's kernel
  check alike; a negative power of q is refused;
* the restriction of the six-dimensional quadric's 8x8 connection to
  the invariant complement of its kernel line.

The floating-point Bessel diagnostics of the rank-one periods live in
``mmirror.bessel``.

The test-only routes (the hbar re-run, the rank-one Bessel series and
operator, the Jacobian-ring check, the dense elimination, dense
polynomials and rational-function arithmetic) live in the test suite's
``reference`` module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .qchev import ConnMatrix
from .rootsys import RootDatum
from .weyl import CosetReps, _gamma_slot, bruhat_covers_up, reflect_coset


# --------------------------------------------------------------------------
# the period recursion
# --------------------------------------------------------------------------

class PeriodSeries(NamedTuple):
    """Coefficients c_0..c_D of the quantum period, plus (optionally) the
    full flat-section vectors degree by degree, each kept as the integers
    (X, Q) of S_d = X / Q."""

    coefficients: Tuple[Fraction, ...]
    trace: Optional[Tuple[Tuple[Tuple[int, ...], int], ...]] = None

    def upto(self, depth: int) -> "PeriodSeries":
        """The series to order q^depth: degrees 0..depth do not depend on
        how deep the sweep went."""
        return PeriodSeries(self.coefficients[:depth + 1],
                            self.trace and self.trace[:depth + 1])


def _integer_parts(M: ConnMatrix):
    """The integer view (s, parts) of a matrix polynomial in q: s > 0 is
    the least with s M integral, and parts[e] holds the q^e part of s M
    as rows of nonzero (column, int) pairs.  A negative power of q is
    refused by its entry."""
    if M.variables != ("q",):
        raise ValueError("expected a matrix over the single variable q")
    cells = M.cells
    s = math.lcm(*(x.denominator for p in cells.values() for x in p.values()))
    parts = {}
    for r, c in sorted(cells):
        for (e,), x in cells[r, c].items():
            if e < 0:
                raise ValueError(f"entry ({r}, {c}) has the negative power "
                                 f"q^{e}; expected a polynomial in q")
            if e not in parts:
                parts[e] = [[] for _ in range(M.size)]
            parts[e][r].append((c, x.numerator * (s // x.denominator)))
    return s, parts


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


def quantum_period(M: ConnMatrix, D: int) -> PeriodSeries:
    """Quantum period of a minuscule connection matrix to order q^D.

    Solves (d*Id - D1) S_d = D2 S_{d-1} starting from the point class
    (the top basis vector), one triangular sweep per degree in the peel
    order of D1; c_d is the top coefficient of S_d.  The sweep runs in
    integers, with S_{d-1} = X/Q and s M = A1 + q A2 for the common
    denominator s of M: for T = s*d and N = 1 + the longest D1 chain,
    Y = s*Q*T^N*S_d solves Y_r = (s*T^N*(A2 X)_r + sum_c A1[r, c] Y_c) / T
    exactly, as S_d at chain depth l has a denominator dividing
    Q*T^(l+1).  The scale s*T^N is formed once per degree, and each row
    of the sweep costs one divmod by T, a remainder raising.
    """
    if D < 0:
        raise ValueError("degree bound must be nonnegative")
    s, parts = _integer_parts(M)
    if parts.keys() - {0, 1}:
        raise ValueError("matrix entry is not linear in q")
    empty = [[] for _ in range(M.size)]
    a1, a2 = parts.get(0, empty), parts.get(1, empty)
    order = _check_nilpotent(a1)
    depth = [0] * M.size
    for r in reversed(order):
        depth[r] = max((depth[c] + 1 for c, _ in a1[r]), default=0)
    N = 1 + max(depth)
    top = M.size - 1
    X, Q = [int(i == top) for i in range(M.size)], 1
    trace = [(tuple(X), Q)]
    steps = [(r, a1[r]) for r in reversed(order)]
    for d in range(1, D + 1):
        T = s * d
        scale = s * T ** N
        Y = [scale * sum([a * X[c] for c, a in row]) if row else 0
             for row in a2]
        for r, row in steps:
            y = Y[r]
            for c, a in row:
                y += Y[c] if a == 1 else a * Y[c]
            Y[r], rem = divmod(y, T)
            if rem:
                raise ArithmeticError("inexact integer division")
        Q *= scale
        g = math.gcd(Q, *Y)
        X, Q = [y // g for y in Y], Q // g
        trace.append((tuple(X), Q))
    coeffs = tuple(Fraction(X[top], Q) for X, Q in trace)
    for d, c in enumerate(coeffs):
        if c < 0:
            raise AssertionError(f"period coefficients must be "
                                 f"nonnegative, but c_{d} = {c}")
    return PeriodSeries(coeffs, tuple(trace))


def bruhat_path_count(d: RootDatum, reps: CosetReps, node: int) -> int:
    """Number of saturated Bruhat chains in W^P from the coset of
    w_top s_gamma, the weight mu_top - <varpi_node, gamma-vee> w_top.gamma,
    up to w_top: an independent route to the first period coefficient.
    A table with no gamma (a node that is not minuscule) is refused."""
    top = len(reps) - 1
    start = reflect_coset(reps, top, _gamma_slot(d, reps))
    counts = {start: 1}
    for i in range(len(reps)):
        amount = counts.get(i, 0)
        if amount == 0:
            continue
        for _beta, j in bruhat_covers_up(reps, i):
            counts[j] = counts.get(j, 0) + amount
    return counts.get(top, 0)


# --------------------------------------------------------------------------
# sparse Z[q] polynomials, rational functions and the cyclic reduction
# --------------------------------------------------------------------------

# Sparse integer polynomials in q: dicts exponent -> nonzero int, so a
# pivot with a large power of q as a factor costs its terms alone.  A row
# of the cyclic reduction holds a dict column -> nonzero int in place of
# each int.

def _dense(p: dict, low: int) -> tuple:
    """Coefficients of q^low, q^(low+1), ..., up to the degree of p."""
    return tuple(p.get(e, 0) for e in range(low, max(p, default=low - 1) + 1))


def _smul(a: dict, b: dict) -> dict:
    """The product a * b."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (i, x), = a.items()
        return {i + j: x * y for j, y in b.items()}
    out = {}
    get = out.get
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            out[k] = get(k, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _rstep(p: dict, w: dict, f: dict, b: dict, d: dict) -> dict:
    """The Bareiss step (p w - f b) / d for rows w, b and sparse
    polynomials p, f, d, where d must divide exactly.  A row is kept by
    its support, exponent -> {column: nonzero int}, so each product walks
    the nonzero entries alone.  A monomial d = c q^low shifts each
    product down by low as it is formed, and its gcd with the
    coefficients of p and f divides those scalars; what is left of c
    divides each finished entry.  Any other d divides the combined row
    column by column (_rdiv)."""
    c = low = 0
    g = 1
    if len(d) == 1:
        (low, c), = d.items()
        g = math.gcd(c, *p.values(), *f.values())
        if c < 0:
            g = -g
        c //= g
    out, terms = {}, []
    for i, x in p.items():
        terms.append((x // g, i, w))
    for i, x in f.items():
        terms.append((-x // g, i, b))
    for x, i, row in terms:
        i -= low
        for e, v in row.items():
            u = out.get(i + e)
            if u is None:
                out[i + e] = {j: x * y for j, y in v.items()}
                continue
            get = u.get
            for j, y in v.items():
                z = get(j, 0) + x * y
                if z:
                    u[j] = z
                else:
                    del u[j]
    if not c:
        return _rdiv(out, d)
    quot = {}
    for k, v in out.items():
        if v:
            if k < 0 or c != 1 and any([y % c for y in v.values()]):
                raise ArithmeticError("inexact polynomial division")
            quot[k] = v if c == 1 else {j: y // c for j, y in v.items()}
    return quot


def _rdiv(a: dict, b: dict) -> dict:
    """Quotient of a row by a sparse polynomial b that must divide it
    exactly, column by column through _sdiv."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot = {}
    for j in {j for v in a.values() for j in v}:
        for e, x in _sdiv({e: v[j] for e, v in a.items() if j in v},
                          b).items():
            quot.setdefault(e, {})[j] = x
    return quot


def _sdiv(a: dict, b: dict) -> dict:
    """Quotient of sparse integer polynomials that must divide exactly;
    long division from the top, visiting each quotient exponent once."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return {}
    low = min(b)
    if min(a) < low:
        raise ArithmeticError("inexact polynomial division")
    if len(b) == 1:
        c = b[low]
        if c == 1:
            return {k - low: x for k, x in a.items()} if low else a
        quot = {}
        for k, x in a.items():
            quot[k - low], r = divmod(x, c)
            if r:
                raise ArithmeticError("inexact polynomial division")
        return quot
    top = max(b)
    lead, rest = b[top], [(e - top, c) for e, c in b.items() if e != top]
    rem, quot = dict(a), {}
    for k in range(max(a), min(a) - low + top - 1, -1):
        x = rem.pop(k, 0)
        if x:
            f, r = divmod(x, lead)
            if r:
                raise ArithmeticError("inexact polynomial division")
            quot[k - top] = f
            for e, c in rest:
                rem[k + e] = rem.get(k + e, 0) - f * c
    if any(rem.values()):
        raise ArithmeticError("inexact polynomial division")
    return quot


def _cleared(p) -> tuple:
    """A sparse integer polynomial c and a scale s > 0 with p = c / s;
    p is a coefficient tuple (low degree first) of ints or Fractions."""
    s = math.lcm(*(x.denominator for x in p))
    return {e: x.numerator * (s // x.denominator)
            for e, x in enumerate(p) if x}, s


def _primitive(p: dict) -> dict:
    g = math.gcd(*p.values())
    return {e: c // g for e, c in p.items()}


def _pgcd(a: dict, b: dict) -> tuple:
    """The cofactors a / g and b / g of the primitive gcd g of two nonzero
    integer polynomials, by the heuristic gcd of their primitive parts
    (Char, Geddes and Gonnet, "GCDHEU"): the integer gcd of their values
    at a large xi, read back in balanced base-xi digits, is the gcd once
    its primitive part divides both.  g is primitive, so by Gauss's lemma
    it divides a primitive part exactly when it divides the polynomial,
    and the test divisions of a and b are the cofactors."""
    pa, pb = _primitive(a), _primitive(b)
    xi = 2 * min(max(map(abs, pa.values())), max(map(abs, pb.values()))) + 29
    while True:
        h = math.gcd(*(sum(c * xi ** e for e, c in p.items())
                       for p in (pa, pb)))
        g, e = {}, 0
        while h:
            c = (h + xi // 2) % xi - xi // 2
            if c:
                g[e] = c
            h, e = (h - c) // xi, e + 1
        g = _primitive(g)
        try:
            return _sdiv(a, g), _sdiv(b, g)
        except ArithmeticError:
            xi = xi * 73794 // 27011


class RatFunc(NamedTuple):
    """Rational function of q, the output form of the operators:
    coprime numerator/denominator coefficient tuples of Fractions (low
    degree first), denominator monic."""

    num: tuple
    den: tuple

    @staticmethod
    def make(num, den=(1,)) -> "RatFunc":
        """num / den for tuples of ints or Fractions, reduced in integers:
        num / den = (a / s) / (b / t) = (a t) / (b s)."""
        (a, s), (b, t) = _cleared(num), _cleared(den)
        return _reduced(a, b, t, s)


def _reduced(a: dict, b: dict, t: int = 1, s: int = 1) -> RatFunc:
    """(a t) / (b s) for sparse integer polynomials a, b and ints s, t > 0,
    reduced: the primitive gcd of a and b divided out, the denominator
    made monic."""
    if not b:
        raise ZeroDivisionError("zero denominator")
    if not a:
        return RatFunc((), (Fraction(1),))
    # degree, not term count: c q^e with e > 0 still shares q with a
    if max(b) > 0:
        a, b = _pgcd(a, b)
    lead = b[max(b)]
    return RatFunc(tuple(Fraction(x * t, lead * s) for x in _dense(a, 0)),
                   tuple(Fraction(x, lead) for x in _dense(b, 0)))


class ScalarOperator:
    """Monic operator sum p_k theta^k with rational-function
    coefficients; order = the theta-degree.  Equality and hash go by the
    coefficients.  The cyclic reduction keeps its integer polynomials
    P_0..P_K as ``_polys``: p_k = P_k / P_K, and some P_k has a nonzero
    constant term (operator_annihilates relies on both); a hand-built
    operator has none.  ``_plain``, the cleared form, is built by
    operator_annihilates on first use."""

    __slots__ = ("coefficients", "_polys", "_plain")

    def __init__(self, coefficients: Tuple[RatFunc, ...]):
        self.coefficients = coefficients
        self._polys = self._plain = None

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __repr__(self):
        return f"ScalarOperator({self.coefficients!r})"

    def __eq__(self, other):
        return (isinstance(other, ScalarOperator)
                and self.coefficients == other.coefficients)

    def __hash__(self):
        return hash(self.coefficients)


def cyclic_scalar_operator(M: ConnMatrix, start: int) -> ScalarOperator:
    """Minimal monic operator in theta annihilating the pairing of the
    flat sections with the basis covector e_start.

    Rows r_0 = e_start, r_{k+1} = theta(r_k) + r_k M are reduced against
    the earlier ones until the first linear dependency, whose
    coefficients are the operator's.  The elimination is fraction-free
    (Bareiss) over Z[q]: with M' = s M integral, the rows r'_k = s^k r_k
    obey r'_{k+1} = s theta(r'_k) + r'_k M'.
    Every reduced entry is a minor of the r'_k, so each step ends in one
    exact division; the dependency is unwound by one fraction-free back
    substitution, and each coefficient is reduced once, at the end.

    Each r'_k and each reduced row b_k is stored once, by its support
    {exponent: {column: nonzero int}}: a Bareiss step (_rstep) walks only
    nonzero entries, and a basis row whose pivot w lacks is passed over.
    The scalars -- pivots p, entries f = w[pivot] and multipliers h --
    are sparse polynomials.
    """
    n = M.size
    if not isinstance(start, int):
        raise ValueError(f"covector must be a basis index, not a "
                         f"{type(start).__name__}")
    if not 0 <= start < n:
        raise ValueError(f"covector index {start} out of range for a "
                         f"matrix of size {n}")
    s, mats = _integer_parts(M)
    row = {0: {start: 1}}

    # basis[k] = (pivot column, the row b_k, the nonzero multipliers
    # h_{k,i}: the entry at pivot i when b_i was reduced out);
    # values[k + 1] = p_k = b_k[pivot], and r'_k = p_k e_k +
    # sum_i h_{k,i} e_i with e_i = b_i / (p_{i-1} p_i)
    basis, values = [], [{0: 1}]
    for k in range(n + 1):
        # Bareiss steps w <- (p_i w - w[pivot_i] b_i) / p_{i-1}; a step with
        # w[pivot_i] = 0 only rescales w, so it waits for the next real one
        w, mults, last = row, [], 0
        for i, (pivot, b, _) in enumerate(basis):
            f = {e: v[pivot] for e, v in w.items() if pivot in v}
            if f:
                p, d = values[i + 1], values[last]
                mults.append((i, f if last == i else
                              _sdiv(_smul(f, values[i]), d)))
                w = _rstep(p, w, f, b, d)
                last = i + 1
        if not w:
            break
        if last != k:
            w = _rstep(values[-1], w, {}, {}, values[last])
        pivot = min(map(min, w.values()))
        basis.append((pivot, w, mults))
        values.append({e: v[pivot] for e, v in w.items() if pivot in v})
        # theta sends q^e to e q^e; then r'_k M' is one sparse mat-vec
        # per exponent pair
        shifted = {e: {j: s * e * x for j, x in v.items()}
                   for e, v in row.items() if e}
        for e, v in row.items():
            for h, a in mats.items():
                out = shifted.setdefault(e + h, {})
                get = out.get
                for i, x in v.items():
                    for j, c in a[i]:
                        out[j] = get(j, 0) + x * c
        row = {e: u for e, v in shifted.items()
               if (u := {j: x for j, x in v.items() if x})}

    # r'_K = sum_i h_{K,i} e_i; x_i = -p_{K-1} a_i in r'_K = sum_i a_i r'_i
    # is a minor, and with x_K = p_{K-1} it solves x_i p_i = -sum_{k>i}
    # x_k h_{k,i}: each x_k, once known, is added into acc[i] for each i
    K, x, hs = len(basis), values[-1], mults
    acc, xs = [{} for _ in basis], [x]
    for i in reversed(range(K)):
        for k, h in hs:
            t = acc[k]
            for e, z in h.items():
                for a, y in x.items():
                    t[a + e] = t.get(a + e, 0) - y * z
        x = _sdiv({e: c for e, c in acc[i].items() if c}, values[i + 1])
        hs = basis[i][2]
        xs.append(x)
    xs.reverse()
    # theta^i pairs with r_i = r'_i / s^i, so p_i = P_i / P_K with
    # P_i = x_i s^i and P_K = x_K s^K; their common power q^low and
    # integer content g are divided out before each p_i is reduced
    low = min(map(min, filter(None, xs)))
    polys = [_smul({-low: s ** i}, p) for i, p in enumerate(xs)]
    g = math.gcd(*(c for p in polys for c in p.values()))
    polys = tuple({e: c // g for e, c in p.items()} for p in polys)
    op = ScalarOperator(tuple(_reduced(p, polys[-1]) for p in polys))
    op._polys = polys
    return op


def operator_annihilates(op: ScalarOperator, series: PeriodSeries,
                         shift: Fraction = Fraction(0)) -> bool:
    """Exact check that sum p_k theta^k kills the truncated series,
    with theta acting on q^{shift+m} by (shift+m).

    It runs in integers: the p_k are cleared to integer polynomials, the
    series is put over one denominator, and t = shift + m - j = u/b
    enters as sum_k p_{k,j} u^k b^(K-k), K the order.  Each q-power the
    known coefficients determine must vanish.  A float shift would round,
    so only an int or a Fraction is taken.

    An operator from the cyclic reduction is first tried on its own
    integer polynomials P_k, which share no factor q.  A reduced
    denominator d_k = P_K / gcd(P_k, P_K) has q-order ord P_K -
    min(ord P_k, ord P_K), which is ord P_K where ord P_k = 0, so the
    common multiple C of the d_k below has q-order >= ord P_K, and the
    cleared form L C p_k = (L C / P_K) P_k is the P_k form times a power
    series in q.  So the P_k killing the series decides True, and a
    rejection is decided again on the cleared form, which the operator
    keeps.
    """
    if not isinstance(shift, (int, Fraction)):
        raise TypeError(f"shift must be an int or a Fraction, not "
                        f"{type(shift).__name__}")
    den = math.lcm(*(c.denominator for c in series.coefficients))
    coeffs = [c.numerator * (den // c.denominator)
              for c in series.coefficients]
    if op._polys and _kills(op._polys, coeffs, shift):
        return True
    if op._plain is None:
        # the cleared form: the common multiple takes in each cleared
        # denominator that does not yet divide it; a cleared monic
        # denominator is primitive, so exact division in Z[q] decides
        # divisibility over Q[q]
        nums = [_cleared(c.num) for c in op.coefficients]
        dens = [_cleared(c.den) for c in op.coefficients]
        common = {0: 1}
        for d, _ in dens:
            try:
                _sdiv(common, d)
            except ArithmeticError:
                common = _smul(common, d)
        # with p_k = (n / s) / (d / t) and the integer L = lcm of the s,
        # L common p_k = n (common / d) t (L / s)
        scale = math.lcm(*(s for _, s in nums))
        op._plain = [{j: x * t * (scale // s)
                      for j, x in _smul(n, _sdiv(common, d)).items()}
                     for (n, s), (d, t) in zip(nums, dens)]
    return _kills(op._plain, coeffs, shift)


def _kills(polys, coeffs, shift) -> bool:
    """Whether sum_k P_k theta^k, for integer polynomials P_k, kills the
    series with integer coefficients ``coeffs`` through each q-power they
    determine."""
    # the q^j coefficient P_{k,j} can be nonzero only for k from low[j]
    # to high[j]; rows holds j, low[j] and P_{k,j} b^(K-k) for k from
    # high[j] down to low[j], so Horner's rule there leaves u^low[j] out
    a, b = shift.numerator, shift.denominator
    K = len(polys) - 1
    low, high = {}, {}
    for k, poly in enumerate(polys):
        for j in poly:
            low.setdefault(j, k)
            high[j] = k
    rows = [(j, low[j], [polys[k].get(j, 0) * b ** (K - k)
                         for k in range(high[j], low[j] - 1, -1)])
            for j in sorted(high)]
    for m in range(len(coeffs)):
        total = 0
        for j, k, row in rows:
            if j > m:
                break
            # homogeneous Horner's rule at u = a + (m - j) b
            u = a + (m - j) * b
            value = 0
            for pkj in row:
                value = value * u + pkj
            total += value * u ** k * coeffs[m - j]
        if total:
            return False
    return True


# --------------------------------------------------------------------------
# the six-dimensional quadric
# --------------------------------------------------------------------------

class D4Split(NamedTuple):
    """The 8x8 quadric matrix restricted to the invariant complement of
    its kernel line."""

    restricted: ConnMatrix


def d4_split(M: ConnMatrix) -> D4Split:
    """Split off the kernel line spanned by the difference of the two
    middle classes and restrict M to the 7-dimensional complement."""
    if M.size != 8:
        raise ValueError("expected the 8-dimensional quadric matrix")
    if M.column(3) != M.column(4):
        raise ArithmeticError("middle columns disagree; no kernel line")

    # constant vectors killed identically in q: the joint kernel of the
    # q-parts, which must be exactly the line of e_3 - e_4; its rank by
    # integer elimination on the rows of the parts
    rows = [[dict(row).get(c, 0) for c in range(8)]
            for part in _integer_parts(M)[1].values() for row in part]
    rank = 0
    for col in range(8):
        i = next((i for i, r in enumerate(rows) if r[col]), None)
        if i is not None:
            piv = rows.pop(i)
            rows = [[piv[col] * a - r[col] * b for a, b in zip(r, piv)]
                    if r[col] else r for r in rows]
            rank += 1
    if rank != 7:
        raise ArithmeticError(
            f"expected a one-line constant kernel, found nullity {8 - rank}"
        )

    # the basis e_0, e_1, e_2, e_3 + e_4, e_5, e_6, e_7; the image of
    # e_3 + e_4 is twice column 3, as columns 3 and 4 agree
    cols = (0, 1, 2, 3, 5, 6, 7)
    cells = {}
    for k, c in enumerate(cols):
        # rows 3 and 4 both express the coefficient of the summed middle
        # class; invariance demands they agree, and row 4 is dropped
        if M.entry(3, c) != M.entry(4, c):
            raise ArithmeticError("complement is not invariant")
        for r, terms in M.column(c).items():
            if r != 4:
                cells[r - (r > 4), k] = ({e: 2 * v for e, v in terms.items()}
                                         if c == 3 else terms)
    restricted = ConnMatrix(None, M.variables, 7, cells)
    return D4Split(restricted)
