"""Mirror superpotentials and the constant-term Gromov-Witten oracle.

For a minuscule node of a simply-laced group the potential is the
Berenstein-Kazhdan geometric-crystal potential

    W = a_1 + ... + a_l + q <v_top, x_theta u v_low> / <v_top, u v_low>,

where u = x_{i_1}(a_1) ... x_{i_l}(a_l) runs over a reduced word of the
longest minimal coset representative w^P, and the matrix coefficients are
taken in the minuscule representation at the dual node, in integers
(:func:`unipotent_vector`).  The type-A Grassmannian potentials are the
case A_{n-1}.

Constant terms of powers of the potential then compute genus-zero
Gromov-Witten invariants (:func:`constant_term_power`), which is the
bridge tested against the connection-matrix recursion in
:mod:`mmirror.period_gw`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, floordiv, itemgetter, mul, neg
from typing import Tuple

from .qchev import LaurentPoly
from .rootsys import (
    CartanType,
    RootDatum,
    build_root_datum,
    descent,
    minuscule_nodes,
)

# Most variables (letters of the word of w^P) a Grassmannian potential
# may have.
MAX_POTENTIAL_VARS = 12


class BudgetExceeded(RuntimeError):
    """Raised when a constant-term walk tries more candidates than its
    budget allows."""


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


def top_coset_word(d: RootDatum, node: int) -> Tuple[tuple, tuple]:
    """(word, lowest): the lowest weight of W . varpi_node, which is
    -varpi_{node*}, and its descent word, which spells w^P, the longest
    minimal coset representative.  W . varpi_node is the negative of
    W . (-varpi_node), so the lowest weight is the negated dominant
    weight that -varpi_node descends to."""
    top = descent(d, [-int(j == node - 1) for j in range(d.rank)])[1]
    lowest = tuple(-x for x in top)
    return descent(d, lowest)[0], lowest


def unipotent_vector(d: RootDatum, word, low) -> dict:
    """u v_low for u = x_{i_1}(a_1) ... x_{i_l}(a_l), as a map weight ->
    coordinate, in the minuscule representation with lowest weight
    ``low``.  Since E_j^2 = 0 there, x_j(a) = I + a E_j, and each letter,
    rightmost first, moves the coordinates at the weights E_j does not
    kill (no target of E_j is also a source); alpha_j is row j of the
    Cartan matrix in fw coordinates.  Each a_m enters once, so a
    coordinate is a map bitmask -> int over square-free monomials, bit m
    standing for a_{m+1}.  The terms letter m adds all have bit m, which
    no term already at the target has, so no two terms ever merge."""
    vec = {tuple(low): {0: 1}}
    for m in reversed(range(len(word))):
        j = word[m] - 1
        alpha = d.cartan[j]
        bit = 1 << m
        for mu, coord in list(vec.items()):
            if mu[j] == -1:
                vec.setdefault(tuple(map(add, mu, alpha)), {}).update(
                    {mask | bit: c for mask, c in coord.items()})
    return vec


def minuscule_potential(d: RootDatum, node: int) -> Potential:
    """Geometric-crystal potential of G/P for a minuscule node of a
    simply-laced datum, with variables a1..al in word order.

    The quantum part is <v_top, x_theta u v_low> / <v_top, u v_low> in the
    representation at the dual node node*, whose lowest weight is
    -varpi_node and highest varpi_{node*}; the denominator must be a
    monomial and every quantum coefficient positive.  The result must be
    homogeneous of degree one under a_m -> z a_m, q -> z^c q (c the
    Coxeter number): each a_m has degree one, so every quantum exponent
    e needs sum(e) + c = 1.
    """
    ct = d.cartan_type
    if ct.family not in "ADE":
        raise ValueError(f"{ct} is not simply laced: its potential needs "
                         "the highest short root")
    if node not in minuscule_nodes(ct):
        raise ValueError(f"node {node} is not minuscule for {ct}")
    word, lowest = top_coset_word(d, node)
    ell = len(word)
    low = tuple(-int(j == node - 1) for j in range(d.rank))
    vec = unipotent_vector(d, word, low)

    # x_theta sends v_{top - theta} to v_top: <top, theta-vee> = 1
    top = tuple(-x for x in lowest)
    source = tuple(x - a for x, a in zip(top, d.highest_root.fw))
    den = vec.get(top, {})
    if len(den) != 1:
        raise ArithmeticError("denominator <v_top, u v_low> is not a "
                              "monomial")
    (den_mask, den_coeff), = den.items()
    quantum = {}
    for mask, coeff in vec.get(source, {}).items():
        value = Fraction(coeff, den_coeff)
        if value <= 0:
            raise ArithmeticError("quantum part has a non-positive "
                                  "coefficient")
        exps = tuple((mask >> m & 1) - (den_mask >> m & 1)
                     for m in range(ell))
        if sum(exps) + d.coxeter_number != 1:
            raise AssertionError("potential is not homogeneous of degree "
                                 "one")
        quantum[exps] = value

    variables = tuple(f"a{m + 1}" for m in range(ell))
    linear = {tuple(int(j == m) for j in range(ell)): Fraction(1)
              for m in range(ell)}
    return Potential(variables, LaurentPoly._clean(variables, linear),
                     LaurentPoly._clean(variables, quantum),
                     d.coxeter_number)


def refuse_large_grassmannian(k: int, n: int) -> None:
    """Raise ValueError unless 1 <= k <= n-1 and the k(n-k) variables of
    the Gr(k, n) potential are at most MAX_POTENTIAL_VARS."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    ell = k * (n - k)
    if ell > MAX_POTENTIAL_VARS:
        raise ValueError(f"Gr({k},{n}) needs {ell} variables, above the "
                         f"bound {MAX_POTENTIAL_VARS}")


def potential_typeA(k: int, n: int) -> Potential:
    """Potential for Gr(k, n): the minuscule potential of A_{n-1} at node
    k, refused when its k(n-k) variables exceed MAX_POTENTIAL_VARS."""
    refuse_large_grassmannian(k, n)
    return minuscule_potential(build_root_datum(CartanType("A", n - 1)), k)


# --------------------------------------------------------------------------
# constant terms and Gromov-Witten numbers
# --------------------------------------------------------------------------

def _constraint_tables(steps, nvar: int) -> list:
    """Per step, the rows v + c k >= 0, v = +-a + q r, of the walk's
    bounds on (*acc, *-acc, 0), sorted by k, as (getter, q, divisors, nu,
    nz), with c <= r twice (so the getter returns a tuple), 0 >= 0 and
    c >= 0; nz is None if only upper bounds are left.  After the first
    step a zero row is dropped: the step before held it."""
    dim = nvar + 1
    free = [i for i, col in enumerate(zip(*steps))
            if nvar > 1 and i < nvar and max(col) <= 0]
    kept = [i for i in range(dim) if i not in free]
    bound = [(int(nvar == 1), 1)] * (len(kept) - 1) + [(0, 0)]
    tables = []
    for t in reversed(range(len(steps))):
        step = steps[t]
        rows = [(2 * dim, 1, -1)] * 2 + [(2 * dim, 0, 0), (2 * dim, 0, 1)]
        for i, (l, h) in zip(kept, bound if nvar else ()):
            s = step[i]
            rows += [row for row in ((i, h, s - h), (dim + i, -l, l - s))
                     if row[2] or not t]
        rows.sort(key=itemgetter(2))
        index, q, slope = zip(*rows)
        nu, nz = bisect_left(slope, 0), bisect_right(slope, 0)
        if len(rows) == nu + 2:     # past the upper bounds 0 >= 0, c >= 0
            index, q, slope, nz = index[:nu], q[:nu], slope[:nu], None
        tables.append((itemgetter(*free, *index), (1,) * len(free) + q,
                       (*(1 - step[i] for i in free),
                        *(abs(k) or 1 for k in slope)),
                       len(free) + nu, nz and len(free) + nz))
        bound = [(min(l, step[i]), max(h, step[i]))
                 for i, (l, h) in zip(kept, bound)]
    return tables[::-1]


def constant_term_power(pot: Potential, m: int,
                        budget: int = 10_000_000) -> Fraction:
    """Constant term of ``f_1^m`` by a memoized walk over the quantum terms.

    The walk picks how often each quantum term is used, one term at a
    time, and merges paths that reach the same state (remaining power r,
    exponent a, last the degree sum(a) + r, which term t moves by
    deg(t) - 1).  The linear part sum b_i x_i then has forced
    counts v = -a, and a state adds ``r! / prod v_i! * prod b_i^{v_i}``
    when v >= 0 and |v| = r.  Weights are integers: a state at r holds
    its weight times B^(m-r), B the lcm of the quantum denominators.

    With s the step and l, h the least and greatest entry of a coordinate
    over the later terms and the linear part, a count c is kept iff
    a + c s + (r - c) l <= 0 <= a + c s + (r - c) h.  Each bound reads
    v + c k >= 0: c <= v // -k if k < 0, c >= -(v // k) if k > 0, v >= 0
    if k = 0, so tables built once per walk give a state its interval by
    minima, with no sign test.  A variable no term raises keeps only
    c <= (a + r) // (1 - s): it stays <= 0, and with two or more
    variables l <= 0 and h = 1.

    The states are held in layers by r; each layer charges r + 1 units of
    ``budget`` per state, one per candidate (state, count), before any is
    walked.  Raises ValueError if the linear part is not one unit
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
    scale = math.lcm(*(c.denominator for _, c in quantum))
    steps = [e + (sum(e) - 1,) for e, _ in quantum]
    tables = _constraint_tables(steps, nvar)

    candidates = 0
    layers = [{} for _ in range(m + 1)]   # layers[r]: acc -> weight
    layers[m][(0,) * nvar + (m,)] = 1
    for (_, coeff), step, (pick, q, dens, nu, nz) in zip(quantum, steps,
                                                         tables):
        c_t = coeff.numerator * (scale // coeff.denominator)
        following = [{} for _ in range(m + 1)]
        for r, layer in enumerate(layers):
            if not layer:
                continue
            candidates += (r + 1) * len(layer)
            if candidates > budget:
                raise BudgetExceeded(
                    f"constant-term walk needs more than its budget "
                    f"of {budget} candidates"
                )
            offsets = tuple(map(mul, q, repeat(r)))
            for acc, weight in layer.items():
                w = map(floordiv, map(add, pick((*acc, *map(neg, acc), 0)),
                                      offsets), dens)
                if nz is None:
                    cmin, cmax = 0, min(w)
                else:
                    w = tuple(w)
                    cmin, cmax = -min(w[nz:]), min(w[:nu])
                    if min(w[nu:nz]) < 0:
                        continue
                if cmin > cmax:
                    continue
                shifted = tuple(a + cmin * s for a, s in zip(acc, step)
                                ) if cmin else acc
                piece = weight * math.comb(r, cmin) * c_t ** cmin
                for count in range(cmin, cmax + 1):
                    out = following[r - count]
                    out[shifted] = out.get(shifted, 0) + piece
                    piece = piece * c_t * (r - count) // (count + 1)
                    shifted = tuple(map(add, shifted, step))
        layers = following

    lin_scale = math.lcm(*(b.denominator for b in pot.linear.terms.values()))
    b_scaled = [b.numerator * (lin_scale // b.denominator)
                for b in map(pot.linear.terms.get, units)]
    sums: dict = {}
    for r, layer in enumerate(layers):
        for acc, weight in layer.items():
            v = tuple(map(neg, acc[:nvar]))
            if min(v, default=0) < 0 or sum(v) != r:
                continue
            sums[r] = sums.get(r, 0) + weight * math.prod(
                map(pow, b_scaled, v)) * (math.factorial(r) // math.prod(
                    map(math.factorial, v)))
    # a state at r carries B^(m - r), and its linear factors lin_scale^r
    return sum((Fraction(s, scale ** (m - r) * lin_scale ** r)
                for r, s in sums.items()), Fraction(0))


def gw_from_constant_term(pot: Potential, d: int,
                          budget: int = 10_000_000) -> Fraction:
    """Degree-d quantum-period coefficient: CT(f_1^{cd}) / (cd)!."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    m = pot.coxeter * d
    return constant_term_power(pot, m, budget) / math.factorial(m)


def potential_to_json(pot: Potential) -> dict:
    """JSON-friendly Laurent term-list form of a potential."""
    return {
        "variables": list(pot.variables),
        "coxeter": pot.coxeter,
        "linear": pot.linear.termlist(),
        "quantum": pot.quantum.termlist(),
    }
