"""Mirror superpotentials and the constant-term Gromov-Witten oracle.

For a minuscule node of a simply-laced group the potential is the
Berenstein-Kazhdan geometric-crystal potential

    W = a_1 + ... + a_l + q <v_top, x_theta u v_low> / <v_top, u v_low>,

where u = x_{i_1}(a_1) ... x_{i_l}(a_l) runs over a reduced word of the
longest minimal coset representative w^P, and the matrix coefficients are
taken in the minuscule representation at the dual node, in integers
(:func:`unipotent_vector`).  All of it is read off the Cartan matrix
(rootsys.cartan_data): the word, the weights, and theta and the Coxeter
number by one descent of alpha_1.  No root is enumerated, so the crystal
side shares only the Cartan matrix with the Chevalley side.  The type-A
Grassmannian potentials are the case A_{n-1}.  One bound limits every
potential: its word has at most MAX_POTENTIAL_WORD letters.  A potential
is held as two terms dicts with int coefficients, the linear part and the
quantum part, and is rendered through the qchev.LaurentPoly view.

Constant terms of powers of the potential then compute genus-zero
Gromov-Witten invariants, CT(W^{hd}) / (hd)! = c_d
(:func:`gw_from_constant_term`), which is the bridge tested against the
connection-matrix recursion in :mod:`mmirror.period_gw`.  The denominator
<v_top, u v_low> is a_1 ... a_l, so every quantum exponent is -1 or 0
and every quantum term has degree 1 - h; on that shape, which
:func:`constant_term_power` checks, the constant term of W^{hd} reads off
the single power Q^d of the quantum part.  The potential's dicts stay
keyed by exponent tuples; inside the route each monomial of Q^d is keyed
by one int of fixed-width fields, so a term product is one int add.  The
budget counts term products.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add
from typing import NamedTuple, Tuple

from .qchev import LaurentPoly
from .rootsys import CartanType, cartan_data, descent, minuscule_length

# Most letters (variables) the word of w^P may have for a potential.  The
# coordinates of u v_low outgrow memory quickly past it: a build takes
# at most 30 MB at 36 letters (Gr(6,12), D9 n9), 97 MB at 42 (Gr(6,13)),
# 450 MB at 48 (Gr(6,14)) and 710 MB at 49 (Gr(7,14)).
MAX_POTENTIAL_WORD = 36

# Most term products a constant term may form unless told otherwise.  The
# largest route the tests form at this default is CT(W^54) of E7 node 7
# (206,310 products, about 0.1 s); the pinned `gw 3 7 6` forms 19,020 and
# a pinned verify case at most 12.  A route stops within about 0.15 s of
# products at 5 * 10^5, so `verify A5 --node 3 --max-degree 100` exits 1
# in about a second where 10^7 let it run 35 s.
DEFAULT_BUDGET = 500_000


class BudgetExceeded(RuntimeError):
    """Raised when forming the powers of the quantum part for a constant
    term needs more term products than its budget allows."""


# --------------------------------------------------------------------------
# potentials
# --------------------------------------------------------------------------

class Potential(NamedTuple):
    """Superpotential ``f_q = linear + q * quantum`` with deg q = coxeter.

    linear and quantum are terms dicts over ``variables``, {exponent
    tuple: nonzero int coefficient}: the unit monomials with coefficient
    1, and quantum terms of degree 1 - coxeter with exponents -1 or 0
    on a minuscule potential."""

    variables: Tuple[str, ...]
    linear: dict
    quantum: dict
    coxeter: int

    def f_one(self) -> LaurentPoly:
        """The potential with q specialized to 1, as a view for output."""
        terms = dict(self.linear)
        for e, c in self.quantum.items():
            terms[e] = terms.get(e, 0) + c
        return LaurentPoly(self.variables,
                           {e: c for e, c in terms.items() if c})


def top_coset_word(rows, node: int) -> Tuple[tuple, tuple]:
    """(word, lowest): the lowest weight of W . varpi_node, which is
    -varpi_{node*}, and its descent word, which spells w^P, the longest
    minimal coset representative; rows are the nonzero Cartan rows
    (rootsys.cartan_data).  W . varpi_node is the negative of
    W . (-varpi_node), so the lowest weight is the negated dominant
    weight that -varpi_node descends to."""
    top = descent(rows, [-int(j == node - 1) for j in range(len(rows))])[1]
    lowest = tuple(-x for x in top)
    return descent(rows, lowest)[0], lowest


def unipotent_vector(cartan, word, low) -> dict:
    """u v_low for u = x_{i_1}(a_1) ... x_{i_l}(a_l), as a map weight ->
    coordinate, in the minuscule representation with lowest weight
    ``low``.  Since E_j^2 = 0 there, x_j(a) = I + a E_j, and each letter,
    rightmost first, moves the coordinates at the weights E_j does not
    kill (no target of E_j is also a source); alpha_j is row j of the
    Cartan matrix ``cartan`` in fw coordinates.  Each a_m enters once, so
    a coordinate is a map bitmask -> int over square-free monomials, bit
    m standing for a_{m+1}.  The terms letter m adds all have bit m, which
    no term already at the target has, so no two terms ever merge."""
    vec = {tuple(low): {0: 1}}
    for m in reversed(range(len(word))):
        j = word[m] - 1
        alpha = cartan[j]
        bit = 1 << m
        for mu, coord in list(vec.items()):
            if mu[j] == -1:
                vec.setdefault(tuple(map(add, mu, alpha)), {}).update(
                    {mask | bit: c for mask, c in coord.items()})
    return vec


def minuscule_potential(ct: CartanType, node: int) -> Potential:
    """Geometric-crystal potential of G/P for a minuscule node of a
    simply-laced type, with variables a1..al in word order, read off the
    Cartan matrix alone.

    The quantum part is <v_top, x_theta u v_low> / <v_top, u v_low> in the
    representation at the dual node node*, whose lowest weight is
    -varpi_node and highest varpi_{node*}; the denominator must be a
    monomial that uses every letter (only the whole word lifts v_low to
    v_top) and whose coefficient divides every numerator coefficient with
    a positive quotient, so every coefficient is an int and every quantum
    exponent is -1 or 0.  The word's length is dim G/P, read in closed
    form (rootsys.minuscule_length), so a node that is not minuscule and
    a word of more than MAX_POTENTIAL_WORD letters are refused in O(1),
    before the Cartan matrix is formed; the descended word must have
    that length.

    All roots have one length, so theta is the dominant root that alpha_1
    climbs to by descent, each step raising the height by one, and the
    Coxeter number is c = ht(theta) + 1 = steps + 2.  The result must be
    homogeneous of degree one under a_m -> z a_m, q -> z^c q: each a_m
    has degree one, so every quantum exponent e needs sum(e) + c = 1,
    which checks c against the representation.
    """
    if ct.family not in "ADE":
        raise ValueError(f"{ct} is not simply laced: its potential needs "
                         "the highest short root")
    ell = minuscule_length(ct, node)
    if ell > MAX_POTENTIAL_WORD:
        raise ValueError(f"{ct} node {node}: the word of w^P has {ell} "
                         f"letters, above the bound {MAX_POTENTIAL_WORD}")
    cartan, rows = cartan_data(ct)
    climb, theta = descent(rows, cartan[0])
    coxeter = len(climb) + 2
    word, lowest = top_coset_word(rows, node)
    if len(word) != ell:
        raise AssertionError(f"the word of w^P has {len(word)} letters, "
                             f"not dim G/P = {ell}")
    low = tuple(-int(j == node - 1) for j in range(ct.rank))
    vec = unipotent_vector(cartan, word, low)

    # x_theta sends v_{top - theta} to v_top: <top, theta-vee> = 1
    top = tuple(-x for x in lowest)
    source = tuple(x - a for x, a in zip(top, theta))
    den = vec.get(top, {})
    if len(den) != 1:
        raise ArithmeticError("denominator <v_top, u v_low> is not a "
                              "monomial")
    (den_mask, den_coeff), = den.items()
    if den_mask != (1 << ell) - 1:
        raise ArithmeticError("denominator <v_top, u v_low> does not use "
                              "every letter")
    quantum = {}
    for mask, coeff in vec.get(source, {}).items():
        value, rest = divmod(coeff, den_coeff)
        if rest:
            raise ArithmeticError("quantum part has a coefficient that "
                                  "is not an integer")
        if value <= 0:
            raise ArithmeticError("quantum part has a non-positive "
                                  "coefficient")
        exps = tuple((mask >> m & 1) - 1 for m in range(ell))
        if sum(exps) + coxeter != 1:
            raise AssertionError("potential is not homogeneous of degree "
                                 "one")
        quantum[exps] = value

    variables = tuple(f"a{m + 1}" for m in range(ell))
    zero = (0,) * ell
    linear = {zero[:m] + (1,) + zero[m + 1:]: 1 for m in range(ell)}
    return Potential(variables, linear, quantum, coxeter)


def potential_typeA(k: int, n: int) -> Potential:
    """Potential for Gr(k, n): the minuscule potential of A_{n-1} at node
    k, from the Cartan matrix of A_{n-1} with no root enumerated."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return minuscule_potential(CartanType("A", n - 1), k)


# --------------------------------------------------------------------------
# constant terms and Gromov-Witten numbers
# --------------------------------------------------------------------------

def constant_term_power(pot: Potential, m: int,
                        budget: int = DEFAULT_BUDGET) -> Fraction:
    """Constant term of ``f_1^m`` for a potential of the shape that
    :func:`minuscule_potential` builds.

    The shape is f_1 = L + Q with L = x_1 + ... + x_l, every coefficient
    of Q an int, and every exponent e of Q at most 0 with sum(e) = 1 - h,
    h = ``coxeter``; anything else raises ValueError naming the broken
    condition.  The binomial theorem gives CT(f_1^m) = sum_j C(m, j)
    CT(Q^j L^(m-j)), and every exponent of Q^j sums to j (1 - h), so only
    j = m / h adds, none unless h divides m.  L^(m-j) holds x^v with
    coefficient (m-j)! / prod v_i! for v >= 0, so the monomial e of Q^j
    adds ``[Q^j]_e (m-j)! / prod v_i!`` with v = -e.

    Q^i = Q^(i-1) Q is a merged dict of int coefficients, a monomial
    keyed by v in one int of fixed-width fields, so a term product is one
    int add; a field is the fewest whole bytes that hold j o, o the
    largest negated exponent of Q, and v is read off the key's bytes.
    Forming Q^i charges |Q^(i-1)| |Q| units of ``budget``, one per term
    product, before it is built.
    """
    if m < 0:
        raise ValueError("power must be nonnegative")
    nvar = len(pot.variables)
    zero = (0,) * nvar
    if pot.linear.keys() != {zero[:t] + (1,) + zero[t + 1:]
                             for t in range(nvar)}:
        raise ValueError("the linear part must be one unit monomial per "
                         "variable")
    if any(c != 1 for c in pot.linear.values()):
        raise ValueError("every linear coefficient must be 1")
    degree = 1 - pot.coxeter
    for e, c in pot.quantum.items():
        if not isinstance(c, int):
            raise ValueError(f"quantum coefficient {c} is not an int")
        if max(e, default=0) > 0:
            raise ValueError(f"quantum exponent {e} has an entry above 0")
        if sum(e) != degree:
            raise ValueError(f"quantum exponent {e} does not sum to "
                             f"1 - coxeter = {degree}")
    j, rest = divmod(m, pot.coxeter)
    if rest:
        return Fraction(0)

    o = -min(chain.from_iterable(pot.quantum), default=0)
    size = max(1, ((j * o).bit_length() + 7) // 8)      # bytes per field
    shifts = range(0, 8 * size * nvar, 8 * size)
    terms = [(sum(-x << t for x, t in zip(e, shifts)), c)
             for e, c in pot.quantum.items()]
    products = 0
    power = {0: 1}                       # Q^i, keyed by v = -e
    for _ in range(j):
        products += len(power) * len(terms)
        if products > budget:
            raise BudgetExceeded(
                f"constant-term route needs more than its budget "
                f"of {budget} term products"
            )
        following = {}
        get = following.get
        for v, c in power.items():
            for f, c_t in terms:
                key = v + f
                following[key] = get(key, 0) + c * c_t
        power = following
    r = m - j
    r_fact = math.factorial(r)
    s = 0
    for key, c in power.items():
        raw = key.to_bytes(nvar * size, "little")
        if size > 1:
            raw = [int.from_bytes(raw[t:t + size], "little")
                   for t in range(0, len(raw), size)]
        s += c * (r_fact // math.prod(map(math.factorial, raw)))
    return Fraction(math.comb(m, j) * s)


def gw_from_constant_term(pot: Potential, d: int,
                          budget: int = DEFAULT_BUDGET) -> Fraction:
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
        "linear": LaurentPoly(pot.variables, pot.linear).termlist(),
        "quantum": LaurentPoly(pot.variables, pot.quantum).termlist(),
    }
