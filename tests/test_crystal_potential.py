import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmirror.qchev import LaurentPoly
from mmirror.crystal_potential import (
    BudgetExceeded,
    PolyMatrix,
    Potential,
    constant_term_power,
    determinant,
    generalized_minor,
    gw_from_constant_term,
    homogeneous_degree_one,
    lusztig_matrix,
    potential_projective,
    potential_to_json,
    potential_typeA,
    standard_word_grassmannian,
    validate_word,
)


def ct_bruteforce(pot: Potential, m: int) -> Fraction:
    """Independent oracle: expand f_1^m as a Laurent polynomial and read
    off the constant term."""
    return (pot.f_one() ** m).constant_term()


def poly(variables, termdict):
    return LaurentPoly(tuple(variables),
                       {tuple(k): Fraction(v) for k, v in termdict.items()})


# ------------------------------------------------------------------ words

def test_standard_word_gr25():
    assert standard_word_grassmannian(2, 5) == (3, 2, 1, 4, 3, 2)


def test_standard_word_p1():
    assert standard_word_grassmannian(1, 2) == (1,)


def test_standard_word_gr24_length():
    assert len(standard_word_grassmannian(2, 4)) == 4


@pytest.mark.parametrize("k,n", [
    (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4),
    (2, 5), (3, 5), (2, 6), (3, 6), (2, 7),
])
def test_word_is_reduced_for_top_coset_rep(k, n):
    assert validate_word(k, n)


def test_word_rejects_bad_k():
    with pytest.raises(ValueError):
        standard_word_grassmannian(0, 4)
    with pytest.raises(ValueError):
        standard_word_grassmannian(4, 4)


# ----------------------------------------------------------------- matrix

def test_lusztig_matrix_golden_sl5():
    u = lusztig_matrix(5, (3, 2, 1, 4, 3, 2))
    V = u.variables
    assert V == ("a1", "a2", "a3", "a4", "a5", "a6")

    def m(**kw):
        t = {}
        for name, c in kw.items():
            exp = [0] * 6
            for ch in name.split("_"):
                exp[int(ch) - 1] += 1
            t[tuple(exp)] = Fraction(c)
        return LaurentPoly(V, t)

    one = LaurentPoly.const(V, 1)
    zero = LaurentPoly(V)
    expected = (
        (one, m(**{"3": 1}), m(**{"3_6": 1}), zero, zero),
        (zero, one, m(**{"2": 1, "6": 1}), m(**{"2_5": 1}), zero),
        (zero, zero, one, m(**{"1": 1, "5": 1}), m(**{"1_4": 1})),
        (zero, zero, zero, one, m(**{"4": 1})),
        (zero, zero, zero, zero, one),
    )
    assert u.entries == expected


def test_lusztig_empty_word_is_identity():
    u = lusztig_matrix(3, ())
    assert u.entries == PolyMatrix.identity(3, ()).entries


def test_superdiagonal_is_sum_of_parameters():
    u = lusztig_matrix(5, standard_word_grassmannian(2, 5))
    total = LaurentPoly(u.variables)
    for r in range(4):
        total = total + u.entry(r, r + 1)
    linear = poly(u.variables, {
        tuple(int(j == i) for j in range(6)): 1 for i in range(6)
    })
    assert total == linear


# ----------------------------------------------------------------- minors

def test_minor_of_identity():
    g = PolyMatrix.identity(4, ("a1",))
    assert generalized_minor(g, (1, 2, 3), (1, 2, 3)) == \
        LaurentPoly.const(("a1",), 1)


def test_minor_size_mismatch():
    g = PolyMatrix.identity(3, ())
    with pytest.raises(ValueError):
        generalized_minor(g, (1, 2), (1,))


def test_determinant_sign_on_swap():
    V = ("t",)
    zero = LaurentPoly(V)
    one = LaurentPoly.const(V, 1)
    m = PolyMatrix(V, ((zero, one), (one, zero)))
    assert determinant(m) == LaurentPoly.const(V, -1)


def test_minor_ratio_golden_gr25():
    u = lusztig_matrix(5, standard_word_grassmannian(2, 5))
    num = generalized_minor(u, (2, 3, 5), (3, 4, 5))
    den = generalized_minor(u, (1, 2, 3), (3, 4, 5))
    # cross-multiplied form of num/den == (a1a2 + a1a6 + a5a6)/(a1...a6)
    golden_num = poly(u.variables, {
        (1, 1, 0, 0, 0, 0): 1,
        (1, 0, 0, 0, 0, 1): 1,
        (0, 0, 0, 0, 1, 1): 1,
    })
    all_vars = poly(u.variables, {(1, 1, 1, 1, 1, 1): 1})
    assert len(den.terms) == 1
    assert num * all_vars == golden_num * den


# -------------------------------------------------------------- potentials

def test_projective_p1():
    pot = potential_projective(1)
    assert pot.coxeter == 2
    assert pot.linear == poly(("x1",), {(1,): 1})
    assert pot.quantum == poly(("x1",), {(-1,): 1})


def test_projective_rejects_zero():
    with pytest.raises(ValueError):
        potential_projective(0)


def test_typeA_gr25_golden():
    pot = potential_typeA(2, 5)
    assert pot.coxeter == 5
    assert pot.quantum == poly(pot.variables, {
        (0, 0, -1, -1, -1, -1): 1,
        (0, -1, -1, -1, -1, 0): 1,
        (-1, -1, -1, -1, 0, 0): 1,
    })


def test_typeA_positivity_and_monomial_denominator():
    for k, n in [(1, 2), (1, 3), (2, 3), (2, 4), (2, 5), (2, 6), (3, 6)]:
        pot = potential_typeA(k, n)
        assert all(c > 0 for c in pot.quantum.terms.values())
        assert all(c == 1 for c in pot.linear.terms.values())


@pytest.mark.parametrize("make", [
    lambda: potential_projective(1),
    lambda: potential_projective(3),
    lambda: potential_typeA(2, 4),
    lambda: potential_typeA(2, 5),
    lambda: potential_typeA(3, 6),
])
def test_homogeneity(make):
    assert homogeneous_degree_one(make())


def test_typeA_bound():
    with pytest.raises(ValueError):
        potential_typeA(3, 8)
    with pytest.raises(ValueError):
        potential_typeA(2, 5, max_vars=5)


# ----------------------------------------------------------- constant terms

def test_ct_trivial_power():
    assert constant_term_power(potential_typeA(2, 4), 0) == 1


def test_ct_matches_bruteforce_oracle():
    cases = [
        (potential_projective(1), range(0, 7)),
        (potential_projective(2), range(0, 7)),
        (potential_projective(3), range(0, 5)),
        (potential_typeA(2, 4), range(0, 9)),
        (potential_typeA(2, 5), range(0, 6)),
    ]
    for pot, powers in cases:
        for m in powers:
            assert constant_term_power(pot, m) == ct_bruteforce(pot, m)


def test_ct_projective_factorials():
    for n in range(1, 5):
        pot = potential_projective(n)
        assert constant_term_power(pot, n + 1) == math.factorial(n + 1)


def test_ct_projective_degree_two():
    pot = potential_projective(2)
    assert constant_term_power(pot, 6) == Fraction(math.factorial(6), 8)


def test_gr25_constant_term_360():
    pot = potential_typeA(2, 5)
    assert ct_bruteforce(pot, 5) == 360
    assert constant_term_power(pot, 5) == 360
    assert gw_from_constant_term(pot, 1) == 3


def test_gr24_degree_one_gw():
    assert gw_from_constant_term(potential_typeA(2, 4), 1) == 2


def test_gw_degree_zero():
    assert gw_from_constant_term(potential_typeA(2, 5), 0) == 1


def test_projective_gw_closed_form():
    for n in range(1, 4):
        pot = potential_projective(n)
        for d in range(0, 3):
            want = Fraction(1, math.factorial(d) ** (n + 1))
            assert gw_from_constant_term(pot, d) == want


def test_gr1n_reduces_to_projective():
    for n in (3, 4):
        grass = potential_typeA(1, n)
        proj = potential_projective(n - 1)
        assert grass.coxeter == proj.coxeter == n
        for m in range(0, 2 * n + 1):
            assert constant_term_power(grass, m) == \
                constant_term_power(proj, m)


positive = st.builds(Fraction, st.integers(1, 5), st.integers(1, 4))


@st.composite
def random_potentials(draw):
    """sum b_i x_i plus up to three terms with exponents in [-2, 1]."""
    nvar = draw(st.integers(1, 3))
    variables = tuple(f"x{i + 1}" for i in range(nvar))
    linear = {tuple(int(j == i) for j in range(nvar)): draw(positive)
              for i in range(nvar)}
    extra = draw(st.dictionaries(
        st.tuples(*[st.integers(-2, 1)] * nvar), positive, max_size=3))
    return Potential(variables, LaurentPoly(variables, linear),
                     LaurentPoly(variables, extra), 1)


@settings(max_examples=60, deadline=None)
@given(random_potentials(), st.integers(0, 6))
def test_ct_walk_matches_bruteforce_on_random_potentials(pot, m):
    assert constant_term_power(pot, m) == ct_bruteforce(pot, m)


def test_ct_vanishes_off_multiples_of_coxeter():
    # f is homogeneous of degree one with deg q = 7: CT(f^m) = 0 unless 7 | m
    pot = potential_typeA(3, 7)
    for m in (1, 6, 8, 13):
        assert constant_term_power(pot, m) == 0
    assert constant_term_power(pot, 7) == math.factorial(7) * 10


@pytest.mark.parametrize("linear", [
    {(1, 0): 1},                         # x2 has no linear term
    {(1, 0): 1, (0, 1): 1, (1, 1): 1},   # a non-unit monomial
    {(2, 0): 1, (0, 1): 1},              # x1 appears squared
])
def test_ct_refuses_nonlinear_linear_part(linear):
    V = ("x1", "x2")
    pot = Potential(V, poly(V, linear), poly(V, {(-1, -1): 1}), 3)
    with pytest.raises(ValueError):
        constant_term_power(pot, 3)


def test_budget_signal():
    with pytest.raises(BudgetExceeded):
        constant_term_power(potential_typeA(2, 5), 5, budget=10)


def test_json_form():
    data = potential_to_json(potential_projective(1))
    assert data["variables"] == ["x1"]
    assert data["coxeter"] == 2
    assert data["linear"] == [[[1], "1"]]
    assert data["quantum"] == [[[-1], "1"]]
