"""Series-level analytics for the quantum connection.

This module turns connection matrices into numbers and differential
operators:

* the quantum-period recursion for the flat section attached to the
  point class, solved in integers over one common denominator by one
  triangular sweep per degree, in the order that peels the nilpotent
  classical part, and the exact integer check that an operator kills
  the period;
* reduction of a connection matrix to a scalar operator in theta =
  q d/dq via a cyclic covector, by fraction-free elimination over Z[q]
  (one exact division per step);
* one polynomial layer for all of it: sparse integer polynomials in q
  (exponent -> nonzero int), so a large power of q or a graded
  polynomial costs only its nonzero terms.  The elimination, the gcd
  that reduces each operator coefficient and the denominator clearing
  of the annihilation check all run on it; ``RatFunc`` is only the
  output form of a coefficient.  A row of the elimination is one
  polynomial in q with integer-vector coefficients (exponent -> one int
  per column, nonzero vectors only), so a Bareiss step, with its exact
  division, treats all columns of an exponent at once;
* one integer view of a connection matrix, s q^m M split by powers of
  q into rows of (column, int) pairs (``_integer_parts``), read by the
  period, the cyclic reduction and the quadric's kernel check alike;
* the kernel/complement splitting of the six-dimensional quadric's
  8x8 connection;
* floating-point Bessel Wronskian diagnostics -- the only non-exact
  computation in the package: I_nu by its power series, K_nu by the
  trapezoid rule on its integral representation.

The test-only routes (the hbar re-run, the rank-one Bessel series and
operator, the Jacobian-ring check, the dense elimination, dense
polynomials and rational-function arithmetic) live in the test suite's
``reference`` module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, repeat
from typing import NamedTuple, Optional, Tuple

from .qchev import ConnMatrix
from .rootsys import RootDatum
from .weyl import CosetReps, bruhat_covers_up, reflect_coset


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
    """The integer view (s, m, parts) of a matrix over q: s > 0 and
    m >= 0 are the least with s q^m M integral, and parts[e] holds the
    q^e part of s q^m M as rows of nonzero (column, int) pairs."""
    if M.variables != ("q",):
        raise ValueError("expected a matrix over the single variable q")
    terms = [(e, r, c, x) for (r, c), p in sorted(M.cells.items())
             for (e,), x in p.items()]
    s = math.lcm(*(x.denominator for *_, x in terms))
    m = max([0] + [-e for e, *_ in terms])
    parts = {e: [[] for _ in range(M.size)]
             for e in {t[0] + m for t in terms}}
    for e, r, c, x in terms:
        parts[e + m][r].append((c, x.numerator * (s // x.denominator)))
    return s, m, parts


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
    s, m, parts = _integer_parts(M)
    if m or parts.keys() - {0, 1}:
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
                y += a * Y[c]
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
    up to w_top: an independent route to the first period coefficient."""
    top = len(reps) - 1
    start = reflect_coset(reps, top, reps.parabolic.gamma)
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

# Sparse integer polynomials in q: dicts exponent -> nonzero int.  Only
# the nonzero terms are stored and walked, so a pivot with a large power
# of q as a factor, or a polynomial in q^h, costs its terms alone.  Rows
# of the cyclic reduction are the same with a vector of ints, one per
# column, in place of each int.  Rows and scalars keep separate exact
# divisions: on one-element vectors the row division would slow every
# scalar one, and RatFunc's gcd leans on those.

def _dense(p: dict, low: int) -> tuple:
    """Coefficients of q^low, q^(low+1), ..., up to the degree of p."""
    return tuple(p.get(e, 0) for e in range(low, max(p, default=low - 1) + 1))


def _smul(a: dict, b: dict, plus: Optional[dict] = None) -> dict:
    """a * b, plus the polynomial ``plus`` if one is given."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return plus or {}
    if plus is None and len(a) == 1:
        (i, x), = a.items()
        return {i + j: x * y for j, y in b.items()}
    out = dict(plus or ())
    get = out.get
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            out[k] = get(k, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _sneg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def _rstep(p: dict, w: dict, f: dict, b: dict, d: dict) -> dict:
    """The Bareiss step (p w - f b) / d for rows w, b and sparse
    polynomials p, f, d, where d must divide exactly; a row is a
    polynomial in q with integer-vector coefficients, exponent -> one int
    per column, and zero slots are dropped.  A monomial d = c q^low
    shifts each product down by low as it is formed; c then divides p
    and f when it divides all their coefficients, and otherwise each
    finished slot, one divmod per entry.  Any other d divides the
    combined row by long division (_rdiv)."""
    c = low = 0
    if len(d) == 1:
        (low, c), = d.items()
        if c != 1 and not any(x % c for x in (*p.values(), *f.values())):
            p = {i: x // c for i, x in p.items()}
            f = {i: x // c for i, x in f.items()}
            c = 1
    out = {}
    get = out.get
    for i, x in p.items():
        i -= low
        for e, v in w.items():
            u = get(i + e)
            out[i + e] = ((v if x == 1 else [x * y for y in v]) if u is None
                          else [z + x * y if y else z for z, y in zip(u, v)])
    for i, x in f.items():
        i -= low
        for e, v in b.items():
            u = get(i + e)
            out[i + e] = ([-x * y for y in v] if u is None else
                          [z - x * y if y else z for z, y in zip(u, v)])
    if not c:
        return _rdiv(out, d)
    quot = {}
    for k, v in out.items():
        if any(v):
            if k < 0:
                raise ArithmeticError("inexact polynomial division")
            if c != 1:
                v, r = zip(*map(divmod, v, repeat(c)))
                if any(r):
                    raise ArithmeticError("inexact polynomial division")
            quot[k] = v
    return quot


def _rdiv(a: dict, b: dict) -> dict:
    """Quotient of a row by a sparse polynomial b that must divide it
    exactly, all columns at once: long division from the top, visiting
    each quotient exponent once, each slot one divmod of a vector by the
    leading coefficient; zero slots of a are skipped."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    top = max(b)
    lead, rest = b[top], [(e - top, c) for e, c in b.items() if e != top]
    rem, quot = dict(a), {}
    for k in range(max(a, default=top), top - 1, -1):
        v = rem.pop(k, None)
        if v is not None and any(v):
            f, r = zip(*map(divmod, v, repeat(lead)))
            if any(r):
                raise ArithmeticError("inexact polynomial division")
            quot[k - top] = f
            for e, c in rest:
                rem[k + e] = [z - c * y if y else z
                              for z, y in zip(rem.get(k + e) or repeat(0), f)]
    if any(map(any, rem.values())):
        raise ArithmeticError("inexact polynomial division")
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

    @staticmethod
    def const(v) -> "RatFunc":
        return RatFunc.make((Fraction(v),))


class ScalarOperator(NamedTuple):
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

    Each r'_k and each reduced row b_k is stored as one polynomial in q
    with integer-vector coefficients, {exponent: [int per column]}, so a
    Bareiss step w <- (p w - f b) / d (_rstep) forms each exponent's
    vector once and, for the monomial d of almost every step, divides it
    as it stands or divides the scalars p and f instead; the scalars -- pivots p, entries f = w[pivot] and multipliers h --
    are sparse {exponent: int} polynomials.  theta - mk scales whole
    vectors, and r'_k M' is one sparse mat-vec per pair of exponents.
    """
    n = M.size
    s, m, mats = _integer_parts(M)
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
    row = {0: [x.numerator * (t // x.denominator) for x in start]}

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
            f = {e: v[pivot] for e, v in w.items() if v[pivot]}
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
        pivot = min(next(j for j, x in enumerate(v) if x) for v in w.values())
        basis.append((pivot, w, mults))
        values.append({e: v[pivot] for e, v in w.items() if v[pivot]})
        # theta - mk sends q^e to (e - mk) q^e, and the factor q^m shifts;
        # then r'_k M' is one sparse mat-vec per exponent pair
        shifted = {e + m: [s * (e - m * k) * x for x in v]
                   for e, v in row.items() if e != m * k}
        for e, v in row.items():
            for h, a in mats.items():
                out = shifted.setdefault(e + h, [0] * n)
                for i, x in enumerate(v):
                    if x:
                        for j, c in a[i]:
                            out[j] += x * c
        row = {e: v for e, v in shifted.items() if any(v)}

    # r'_K = sum_i h_{K,i} e_i; x_i = p_{K-1} a_i in r'_K = sum_i a_i r'_i
    # is a minor and solves x_i p_i = p_{K-1} h_{K,i} - sum_{k>i} x_k h_{k,i}
    K, top = len(basis), values[-1]
    acc = {i: _smul(top, h) for i, h in mults}
    coeffs = [RatFunc.const(1)]
    for i in reversed(range(K)):
        x = _sneg(_sdiv(acc.pop(i, {}), values[i + 1]))
        for k, h in basis[i][2]:
            acc[k] = _smul(x, h, acc.get(k))
        # theta^i pairs with r_i = r'_i / (s^i q^{mi}); q^low cancels first
        den = {e + m * (K - i): c * s ** (K - i) for e, c in top.items()}
        low = min(x.keys() | den.keys())
        coeffs.append(RatFunc.make(_dense(x, low), _dense(den, low)))
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
    # the common multiple takes in each cleared denominator that does not
    # yet divide it; a cleared monic denominator is primitive, so exact
    # division in Z[q] decides divisibility over Q[q]
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
    cleared = [{j: x * t * (scale // s)
                for j, x in _smul(n, _sdiv(common, d)).items()}
               for (n, s), (d, t) in zip(nums, dens)]
    # by_power[j][K - k] = p_{k,j} b^(K-k), p_{k,j} the q^j coefficient
    a, b = shift.numerator, shift.denominator
    K = len(cleared) - 1
    width = 1 + max((j for poly in cleared for j in poly), default=-1)
    by_power = [[cleared[k].get(j, 0) * b ** (K - k)
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

class D4Split(NamedTuple):
    """Kernel line and invariant complement of the 8x8 quadric matrix."""

    kernel: Tuple[int, ...]
    basis: Tuple[Tuple[int, ...], ...]
    restricted: ConnMatrix


def d4_split(M: ConnMatrix) -> D4Split:
    """Split off the kernel line spanned by the difference of the two
    middle classes and restrict M to the 7-dimensional complement."""
    if M.size != 8:
        raise ValueError("expected the 8-dimensional quadric matrix")
    if M.column(3) != M.column(4):
        raise ArithmeticError("middle columns disagree; no kernel line")
    kernel = (0, 0, 0, 1, -1, 0, 0, 0)

    # constant vectors killed identically in q: the joint kernel of the
    # q-parts, which must be exactly this one line; its rank by integer
    # elimination on the rows of the parts
    rows = [[dict(row).get(c, 0) for c in range(8)]
            for part in _integer_parts(M)[2].values() for row in part]
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
    basis = tuple(tuple(int(i == c or (c, i) == (3, 4)) for i in range(8))
                  for c in cols)
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
    return D4Split(kernel, basis, restricted)


# --------------------------------------------------------------------------
# Bessel numerics (the only floating-point corner)
# --------------------------------------------------------------------------

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
    try:
        i0 = _bessel_i_series(y, nu)
        i1 = _bessel_i_series(y, nu + 1.0)
        k0 = _bessel_k_integral(y, nu)
        k1 = _bessel_k_integral(y, nu + 1.0)
    except OverflowError:
        raise ValueError(f"I_nu or K_nu at y = {y}, nu = {nu} is beyond "
                         "float range") from None
    wronskian = i0 * k1 + i1 * k0
    return {
        "i_nu": i0,
        "i_nu_plus_1": i1,
        "k_nu": k0,
        "k_nu_plus_1": k1,
        "wronskian": wronskian,
        "wronskian_error": abs(y * wronskian - 1.0),
    }


def series_to_json(series: PeriodSeries) -> list:
    """Period coefficients as exact num/den strings."""
    return [str(c) for c in series.coefficients]
