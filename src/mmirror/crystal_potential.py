"""Mirror superpotentials and the constant-term Gromov-Witten oracle.

Two constructions are provided.  For projective space the potential is
written in closed form.  For type-A Grassmannians it is assembled from
the Lusztig parametrization of a unipotent cell: a product of elementary
unipotent matrices indexed by a reduced word, whose minors give the
quantum part of the potential as a ratio

    (positive-coefficient minor) / (monomial minor).

Constant terms of powers of the potential then compute genus-zero
Gromov-Witten invariants, which is the bridge tested against the
connection-matrix recursion in :mod:`mmirror.period_gw`.  A constant term
is found by a memoized walk over the quantum terms only (the linear part
is then forced); one unit of its ``budget`` is one candidate
(state, count) of that walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .qchev import LaurentPoly
from .rootsys import CartanType, build_root_datum
from .weyl import from_word, minuscule_coset_reps


class BudgetExceeded(RuntimeError):
    """Raised when a constant-term walk tries more candidates than its
    budget allows."""


# --------------------------------------------------------------------------
# polynomial matrices
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix with exact polynomial entries, all over one variable
    tuple."""

    variables: Tuple[str, ...]
    entries: Tuple[Tuple[LaurentPoly, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, r: int, c: int) -> LaurentPoly:
        return self.entries[r][c]

    @staticmethod
    def identity(n: int, variables: Tuple[str, ...]) -> "PolyMatrix":
        one = LaurentPoly.const(variables, 1)
        zero = LaurentPoly(variables)
        return PolyMatrix(variables, tuple(
            tuple(one if i == j else zero for j in range(n))
            for i in range(n)
        ))


def _leading(p: LaurentPoly) -> Tuple[Tuple[int, ...], Fraction]:
    key = max(p.terms)
    return key, p.terms[key]


def _exact_divide(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Divide ``num`` by ``den`` assuming the division is exact.

    Greedy cancellation of lex-leading terms; since the quotient exists,
    the remainder shrinks strictly in lex order and the loop terminates.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    variables = num.variables
    lead_exp, lead_coeff = _leading(den)
    quotient: dict = {}
    rem = num
    while not rem.is_zero():
        rexp, rcoeff = _leading(rem)
        qexp = tuple(a - b for a, b in zip(rexp, lead_exp))
        qcoeff = rcoeff / lead_coeff
        quotient[qexp] = quotient.get(qexp, Fraction(0)) + qcoeff
        rem = rem - den * LaurentPoly(variables, {qexp: qcoeff})
        if not rem.is_zero() and _leading(rem)[0] >= rexp:
            raise ArithmeticError("division is not exact")
    return LaurentPoly(variables, quotient)


def determinant(m: PolyMatrix) -> LaurentPoly:
    """Fraction-free (Bareiss) determinant over the polynomial ring."""
    n = m.size
    variables = m.variables
    if n == 0:
        return LaurentPoly.const(variables, 1)
    work = [list(row) for row in m.entries]
    sign = 1
    prev = LaurentPoly.const(variables, 1)
    for k in range(n - 1):
        if work[k][k].is_zero():
            pivot_row = next(
                (i for i in range(k + 1, n) if not work[i][k].is_zero()),
                None,
            )
            if pivot_row is None:
                return LaurentPoly(variables)
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = work[i][j] * work[k][k] - work[i][k] * work[k][j]
                work[i][j] = _exact_divide(num, prev)
            work[i][k] = LaurentPoly(variables)
        prev = work[k][k]
    det = work[n - 1][n - 1]
    if sign < 0:
        det = -det
    return det


def generalized_minor(g: PolyMatrix, rows: Sequence[int],
                      cols: Sequence[int]) -> LaurentPoly:
    """Minor of ``g`` using 1-based row set ``rows`` and column set
    ``cols`` (the matrix coefficient on extreme weight vectors of a
    fundamental representation, in its index-set incarnation)."""
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    rr = sorted(rows)
    cc = sorted(cols)
    n = g.size
    if rr and (rr[0] < 1 or rr[-1] > n):
        raise ValueError("row index out of range")
    if cc and (cc[0] < 1 or cc[-1] > n):
        raise ValueError("column index out of range")
    sub = PolyMatrix(g.variables, tuple(
        tuple(g.entries[r - 1][c - 1] for c in cc) for r in rr
    ))
    return determinant(sub)


# --------------------------------------------------------------------------
# Lusztig parametrization
# --------------------------------------------------------------------------

def standard_word_grassmannian(k: int, n: int) -> Tuple[int, ...]:
    """Canonical reduced word (length ``k(n-k)``) parametrizing the
    unipotent cell for Gr(k, n).

    The forward word ``(k, k+1, ..., n-1)(k-1, ..., n-2)...(1, ..., n-k)``
    is reduced for the longest-coset-representative's inverse; its
    reversal is returned, matching the orientation the elementary-matrix
    product expects.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    forward: list = []
    for j in range(k, 0, -1):
        forward.extend(range(j, j + n - k))
    word = tuple(reversed(forward))
    assert len(word) == k * (n - k)
    return word


def lusztig_matrix(n: int, word: Sequence[int],
                   symbols: Optional[Sequence[str]] = None) -> PolyMatrix:
    """Product ``(I + a_1 E_{i_1, i_1+1}) (I + a_2 E_{i_2, i_2+1}) ...``
    of elementary unipotent matrices in SL(n)."""
    if symbols is None:
        symbols = tuple(f"a{m + 1}" for m in range(len(word)))
    else:
        symbols = tuple(symbols)
    if len(symbols) != len(word):
        raise ValueError("one symbol per word letter required")
    variables = symbols
    rows = [list(row) for row in PolyMatrix.identity(n, variables).entries]
    for m, i in enumerate(word):
        if not 1 <= i <= n - 1:
            raise ValueError(f"word letter {i} out of range for SL({n})")
        # right factor I + a E_{i,i+1}: column i+1 += a * column i
        a = LaurentPoly.var(variables, symbols[m])
        for row in rows:
            if not row[i - 1].is_zero():
                row[i] = row[i] + a * row[i - 1]
    return PolyMatrix(variables, tuple(tuple(row) for row in rows))


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """Superpotential ``f_q = linear + q * quantum`` with deg q = coxeter."""

    variables: Tuple[str, ...]
    linear: LaurentPoly
    quantum: LaurentPoly
    coxeter: int

    def f_one(self) -> LaurentPoly:
        """The potential with q specialized to 1."""
        return self.linear + self.quantum

    def full(self) -> LaurentPoly:
        """f_q as a Laurent polynomial over ("q",) + variables."""
        ext = ("q",) + self.variables
        terms = {}
        for exps, coeff in self.linear.terms.items():
            terms[(0,) + exps] = coeff
        for exps, coeff in self.quantum.terms.items():
            key = (1,) + exps
            terms[key] = terms.get(key, Fraction(0)) + coeff
        return LaurentPoly(ext, terms)


def homogeneous_degree_one(pot: Potential) -> bool:
    """Check that a_m -> z*a_m, q -> z^c * q rescales f_q by exactly z."""
    f = pot.full()
    c = pot.coxeter
    ext = ("z",) + f.variables
    lifted = {}
    want = {}
    for exps, coeff in f.terms.items():
        zdeg = c * exps[0] + sum(exps[1:])
        lifted[(zdeg,) + exps] = coeff
        want[(1,) + exps] = coeff
    return LaurentPoly(ext, lifted) == LaurentPoly(ext, want)


def potential_projective(n: int) -> Potential:
    """x_1 + ... + x_n + q / (x_1 ... x_n), the potential for P^n."""
    if n < 1:
        raise ValueError("n must be positive")
    variables = tuple(f"x{m + 1}" for m in range(n))
    linear = LaurentPoly(variables, {
        tuple(int(j == m) for j in range(n)): Fraction(1) for m in range(n)
    })
    quantum = LaurentPoly(variables, {tuple(-1 for _ in range(n)):
                                      Fraction(1)})
    return Potential(variables, linear, quantum, n + 1)


def potential_typeA(k: int, n: int, max_vars: int = 12) -> Potential:
    """Potential for Gr(k, n) from minors of the Lusztig matrix.

    The quantum part is the minor ratio with numerator rows
    ``{2..n-k} + {n}``, denominator rows ``{1..n-k}``, and columns
    ``{k+1..n}``; the denominator minor must come out a monomial.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    ell = k * (n - k)
    if ell > max_vars:
        raise ValueError(
            f"Gr({k},{n}) needs {ell} variables, above the bound {max_vars}"
        )
    word = standard_word_grassmannian(k, n)
    u = lusztig_matrix(n, word)
    variables = u.variables

    linear = LaurentPoly(variables, {
        tuple(int(j == m) for j in range(ell)): Fraction(1)
        for m in range(ell)
    })
    superdiag = LaurentPoly(variables)
    for r in range(n - 1):
        superdiag = superdiag + u.entry(r, r + 1)
    if superdiag != linear:
        raise AssertionError("superdiagonal of the cell matrix is not "
                             "the sum of the parameters")

    i = n - k
    cols = tuple(range(k + 1, n + 1))
    num = generalized_minor(u, tuple(range(2, i + 1)) + (n,), cols)
    den = generalized_minor(u, tuple(range(1, i + 1)), cols)
    if len(den.terms) != 1:
        raise ArithmeticError("denominator minor is not a monomial")
    (den_exp, den_coeff), = den.terms.items()
    quantum_terms = {}
    for exps, coeff in num.terms.items():
        value = coeff / den_coeff
        if value <= 0:
            raise ArithmeticError("quantum part has a non-positive "
                                  "coefficient")
        quantum_terms[tuple(a - b for a, b in zip(exps, den_exp))] = value
    quantum = LaurentPoly(variables, quantum_terms)

    pot = Potential(variables, linear, quantum, n)
    if not homogeneous_degree_one(pot):
        raise AssertionError("potential is not homogeneous of degree one")
    return pot


def validate_word(k: int, n: int) -> bool:
    """Cross-check the standard word against the Weyl group: it must
    multiply out, reduced, to the longest minimal coset representative."""
    word = standard_word_grassmannian(k, n)
    d = build_root_datum(CartanType("A", n - 1))
    w = from_word(d, word)
    reps = minuscule_coset_reps(d, k)
    return w.length == len(word) and w == reps.reps[-1]


# --------------------------------------------------------------------------
# constant terms and Gromov-Witten numbers
# --------------------------------------------------------------------------

def constant_term_power(pot: Potential, m: int,
                        budget: int = 10_000_000) -> Fraction:
    """Constant term of ``f_1^m`` by a memoized walk over the quantum terms.

    The walk chooses how often each quantum term is used, one term at a
    time, and merges the paths that reach the same state (remaining
    power r, accumulated exponent).  The linear part sum b_i x_i then has
    forced counts v = -exponent, and a state adds
    ``r! / prod v_i! * prod b_i^{v_i}`` when v >= 0 and |v| = r.  Each
    candidate (state, count) spends one unit of ``budget`` before it is
    pruned: by per-coordinate bounds on what the remaining quantum and
    linear terms can still contribute, and by the degree sum(exponent) + r,
    which must reach 0 and which only a quantum term t moves, by
    deg(t) - 1.  Raises ValueError if the linear part is not one unit
    monomial per variable.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    nvar = len(pot.variables)
    units = [tuple(int(j == i) for j in range(nvar)) for i in range(nvar)]
    if set(pot.linear.terms) != set(units):
        raise ValueError("the linear part must be one unit monomial per "
                         "variable")
    quantum = sorted(pot.quantum.terms.items())
    # Exponents extended by the degree coordinate: a state's last entry
    # is sum(exponent) + r, so quantum term t shifts it by deg(t) - 1.
    steps = [e + (sum(e) - 1,) for e, _ in quantum]
    linear = [u + (0,) for u in units]
    bounds = []
    for t in range(len(steps)):
        rest = steps[t + 1:] + linear
        bounds.append((tuple(map(min, zip(*rest))),
                       tuple(map(max, zip(*rest)))))

    candidates = 0
    states = {(m, (0,) * nvar + (m,)): Fraction(1)}
    for (_, coeff), step, (lo, hi) in zip(quantum, steps, bounds):
        following: dict = {}
        for (r, acc), weight in states.items():
            piece = weight
            shifted = acc
            for count in range(r + 1):
                candidates += 1
                if candidates > budget:
                    raise BudgetExceeded(
                        f"constant-term walk needs more than its budget "
                        f"of {budget} candidates"
                    )
                if count:
                    piece = piece * coeff * (r - count + 1) / count
                    shifted = tuple(a + s for a, s in zip(shifted, step))
                rest = r - count
                if any(a + rest * l > 0 or a + rest * h < 0
                       for a, l, h in zip(shifted, lo, hi)):
                    continue
                key = (rest, shifted)
                following[key] = following.get(key, 0) + piece
        states = following

    total = Fraction(0)
    for (r, acc), weight in states.items():
        v = [-a for a in acc[:nvar]]
        if min(v, default=0) < 0 or sum(v) != r:
            continue
        term = weight * math.factorial(r)
        for vi, u in zip(v, units):
            term = term * pot.linear.terms[u] ** vi / math.factorial(vi)
        total += term
    return total


def gw_from_constant_term(pot: Potential, d: int,
                          budget: int = 10_000_000) -> Fraction:
    """Degree-d quantum-period coefficient: CT(f_1^{cd}) / (cd)!."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    m = pot.coxeter * d
    return constant_term_power(pot, m, budget) / math.factorial(m)


def potential_to_json(pot: Potential) -> dict:
    """JSON-friendly Laurent term-list form of a potential."""
    def termlist(p: LaurentPoly) -> list:
        return [[list(exps), str(coeff)]
                for exps, coeff in sorted(p.terms.items())]

    return {
        "variables": list(pot.variables),
        "coxeter": pot.coxeter,
        "linear": termlist(pot.linear),
        "quantum": termlist(pot.quantum),
    }
