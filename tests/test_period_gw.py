import hashlib
import math
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmirror.rootsys import (
    CartanType,
    build_root_datum,
    minuscule_dimension,
    minuscule_nodes,
)
from mmirror.weyl import minuscule_coset_reps
from mmirror.qchev import (
    ConnMatrix,
    fw_matrix,
    mihalcea_equivariant,
    quantum_chevalley_minuscule,
)
from mmirror.crystal_potential import gw_from_constant_term, potential_typeA
from mmirror import period_gw
from mmirror.bessel import (
    _bessel_i_series,
    _bessel_k_integral,
    bessel_numeric_checks,
)
from mmirror.period_gw import (
    PeriodSeries,
    RatFunc,
    ScalarOperator,
    _integer_parts,
    _pgcd,
    _rdiv,
    _rstep,
    _sdiv,
    _smul,
    bruhat_path_count,
    cyclic_scalar_operator,
    d4_split,
    operator_annihilates,
    quantum_period,
)
from reference import (
    LaurentPoly,
    _pdivmod,
    _pexact_div,
    _pmul,
    basis_trace,
    bessel_operator_from_matrix,
    equivariant_bessel,
    hbar_rescale,
    hbar_rescale_consistent,
    jacobian_pn_check,
    potential_projective,
    quantum_period_case,
    reference_cyclic_scalar_operator,
    reference_ratfunc,
    rf_add,
    rf_div,
    rf_mul,
    rf_sub,
    rf_theta,
)


def setup_case(ct, node):
    d = build_root_datum(CartanType.parse(ct))
    reps = minuscule_coset_reps(d, node)
    return d, reps, quantum_chevalley_minuscule(d, reps, node)


def one_by_one(value):
    return ConnMatrix(
        basis=None, variables=("q",), size=1,
        cells={(0, 0): {(0,): value}},
    )


# ------------------------------------------------------------------ periods

def test_p1_period_closed_form():
    series = quantum_period_case("A1", 1, 5)
    for d, c in enumerate(series.coefficients):
        assert c == Fraction(1, math.factorial(d) ** 2)


@pytest.mark.parametrize("ct,node,n", [
    ("A2", 1, 2), ("A3", 1, 3), ("A4", 1, 4),
])
def test_pn_period_closed_form(ct, node, n):
    series = quantum_period_case(ct, node, 4)
    for d, c in enumerate(series.coefficients):
        assert c == Fraction(1, math.factorial(d) ** (n + 1))


@pytest.mark.parametrize("ct,node,k,n", [
    ("A3", 2, 2, 4), ("A4", 2, 2, 5), ("A5", 2, 2, 6), ("A5", 3, 3, 6),
])
def test_grassmannian_c1_binomial(ct, node, k, n):
    series = quantum_period_case(ct, node, 1)
    assert series.coefficients[1] == math.comb(n - 2, k - 1)


@pytest.mark.parametrize("ct,node", [
    ("A3", 2), ("B3", 3), ("C3", 1), ("D4", 1), ("D4", 4),
    ("B4", 4), ("D5", 1), ("E6", 1),
])
def test_c1_positive_and_counts_bruhat_paths(ct, node):
    d, reps, m = setup_case(ct, node)
    series = quantum_period(m, 1)
    count = bruhat_path_count(d, reps, node)
    assert series.coefficients[1] == count
    assert count > 0


def test_period_c0_is_one_and_trace_kept():
    series = quantum_period_case("A3", 2, 2)
    assert series.coefficients[0] == 1
    assert basis_trace(series) is not None
    assert len(basis_trace(series)) == 3


def test_period_rejects_negative_coefficients():
    m = ConnMatrix(
        basis=None, variables=("q",), size=1,
        cells={(0, 0): {(1,): -1}},
    )
    with pytest.raises(AssertionError, match="nonnegative") as err:
        quantum_period(m, 3)
    # c_d = (-1)^d / d!: the first negative degree is named, c_3 is not
    assert str(err.value).endswith("c_1 = -1")


def test_period_builds_only_the_coefficient_fractions(monkeypatch):
    # the trace stays integers (X, Q) until basis_trace is read
    m = series_matrix("E6", 1)
    D = 2 * m.size
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        series = quantum_period(m, D)
        assert len(made) <= D + 1
        trace = basis_trace(series)
        assert len(made) > D + 1
    assert len(trace) == D + 1
    assert all(isinstance(x, Fraction) for s in trace for x in s)
    assert series.coefficients == tuple(s[-1] for s in trace)


def test_period_rejects_nonnilpotent():
    with pytest.raises(ValueError):
        quantum_period(one_by_one(1), 2)


def test_period_rejects_nonlinear_matrix():
    m = ConnMatrix(
        basis=None, variables=("q",), size=1,
        cells={(0, 0): {(2,): 1}},
    )
    with pytest.raises(ValueError):
        quantum_period(m, 1)


def test_period_refuses_a_negative_power_of_q():
    m = ConnMatrix(
        basis=None, variables=("q",), size=1,
        cells={(0, 0): {(-1,): 1}},
    )
    with pytest.raises(ValueError,
                       match=r"entry \(0, 0\) has the negative power q\^-1"):
        quantum_period(m, 1)


def test_integer_parts_round_trip():
    # s M read back from the parts is M, every part entry a nonzero int
    # and every exponent's rows one list per row
    V = ("q",)
    m = ConnMatrix(None, V, 3, {
        (0, 1): {(0,): Fraction(1, 6), (3,): Fraction(3, 4)},
        (2, 0): {(2,): Fraction(-5, 2)},
        (1, 2): {(1,): Fraction(2, 3), (2,): 7},
        (1, 1): {(3,): Fraction(-1, 4)},
    })
    s, parts = _integer_parts(m)
    assert s == 12
    assert sorted(parts) == [0, 1, 2, 3]
    cells = {}
    for e, rows in parts.items():
        assert len(rows) == 3 and len({id(row) for row in rows}) == 3
        for r, row in enumerate(rows):
            for c, x in row:
                assert type(x) is int and x
                cells.setdefault((r, c), {})[(e,)] = Fraction(x, s)
    assert ConnMatrix(None, V, 3, cells) == m
    # a negative power of q is refused by its entry
    laurent = ConnMatrix(None, V, 3, {**m.cells, (2, 1): {(-2,): 1}})
    with pytest.raises(ValueError,
                       match=r"entry \(2, 1\) has the negative power q\^-2"):
        _integer_parts(laurent)


def test_integer_parts_refuses_several_variables():
    m = ConnMatrix(None, ("q", "h1"), 1,
                   {(0, 0): {(0, 1): 1}})
    with pytest.raises(ValueError, match="single variable q"):
        _integer_parts(m)


def test_cross_oracle_constant_terms():
    # periods from the recursion == constant-term route via the potential
    for n in (1, 2, 3):
        series = quantum_period_case(f"A{n}", 1, 3)
        pot = potential_projective(n)
        for d in range(4):
            assert series.coefficients[d] == gw_from_constant_term(pot, d)
    for (ct, node, k, n, D) in [("A3", 2, 2, 4, 2), ("A4", 2, 2, 5, 2),
                                ("A5", 2, 2, 6, 3), ("A5", 3, 3, 6, 2),
                                ("A6", 3, 3, 7, 2), ("A7", 3, 3, 8, 3),
                                ("A7", 4, 4, 8, 2), ("A9", 4, 4, 10, 2),
                                ("A9", 5, 5, 10, 2), ("A11", 6, 6, 12, 2)]:
        series = quantum_period_case(ct, node, D)
        pot = potential_typeA(k, n)
        for d in range(D + 1):
            assert series.coefficients[d] == gw_from_constant_term(pot, d)
    assert gw_from_constant_term(potential_typeA(3, 7), 2) == \
        Fraction(281, 64)


def neumann_trace(M, D):
    """Reference: the flat-section vectors S_0..S_D, (d*Id - D1) x = b
    solved by the terminating Neumann series x = sum_k D1^k b / d^{k+1},
    with D1, D2 read densely."""
    n = M.size
    d1 = [[M.entry(r, c).get((0,), 0) for c in range(n)]
          for r in range(n)]
    d2 = [[M.entry(r, c).get((1,), 0) for c in range(n)]
          for r in range(n)]

    def matvec(m, v):
        return tuple(sum(a * x for a, x in zip(row, v) if a) for row in m)

    s = tuple(Fraction(int(i == n - 1)) for i in range(n))
    trace = [s]
    for d in range(1, D + 1):
        power = matvec(d2, s)
        scale = Fraction(1, d)
        acc = tuple(x * scale for x in power)
        while True:
            power = matvec(d1, power)
            if not any(power):
                break
            scale /= d
            acc = tuple(a + x * scale for a, x in zip(acc, power))
        s = acc
        trace.append(s)
    return tuple(trace)


def assert_matches_neumann(M, D):
    """The period and every entry of its basis trace equal the Neumann
    reference's."""
    series = quantum_period(M, D)
    want = neumann_trace(M, D)
    assert series.coefficients == tuple(v[-1] for v in want)
    got = basis_trace(series)
    assert len(got) == len(want) == D + 1
    for d, (s, w) in enumerate(zip(got, want)):
        assert len(s) == len(w) == M.size
        for i, (x, y) in enumerate(zip(s, w)):
            assert x == y, (d, i)


def series_matrix(ct, node):
    _, _, m = setup_case(ct, node)
    return d4_split(m).restricted if (ct, node) == ("D4", 1) else m


# the matrices of the benchmark's series_ode workload
SERIES_ODE_CASES = [("A4", 2), ("A5", 3), ("D5", 5), ("E6", 1), ("B5", 5),
                    ("B4", 1), ("D4", 1)]


@pytest.mark.parametrize("ct,node", SERIES_ODE_CASES)
def test_period_matches_neumann_reference(ct, node):
    m = series_matrix(ct, node)
    assert_matches_neumann(m, 2 * m.size)


def test_series_ode_traces_golden():
    # the flat-section vectors (X, Q) of every degree on the benchmark's
    # matrices at its depth 2 * size, byte for byte
    digest = hashlib.sha256()
    for ct, node in SERIES_ODE_CASES:
        m = series_matrix(ct, node)
        digest.update(repr(quantum_period(m, 2 * m.size).trace).encode())
    assert digest.hexdigest() == ("7bba8e24452e9a593758b240976a06ec"
                                  "76e4cbb2edeeb18939a027e9e8f006a1")


def rescaled(m, classical, quantum):
    """m with its classical part times ``classical`` and the q-coefficient
    of its first quantum cell replaced by ``quantum``."""
    cell = min(rc for rc, e in m.cells.items() if (1,) in e)
    cells = {}
    for rc, e in m.cells.items():
        terms = {k: v * classical if k == (0,) else v
                 for k, v in e.items()}
        if rc == cell:
            terms[(1,)] = quantum
        cells[rc] = terms
    return ConnMatrix(m.basis, m.variables, m.size, cells)


@pytest.mark.parametrize("ct,node", [("A4", 2), ("B5", 5), ("D4", 1)])
@pytest.mark.parametrize("classical,quantum", [
    (Fraction(1, 2), Fraction(1)),
    (Fraction(1), Fraction(2, 3)),
    (Fraction(1, 2), Fraction(2, 3)),
], ids=["halved-D1", "two-thirds-in-D2", "both"])
def test_period_with_rational_entries_matches_neumann(ct, node, classical,
                                                      quantum):
    # a classical part over 2 and a quantum entry over 3 take the integer
    # sweep through its scale factors s1 = 2 and s2 = 3
    m = rescaled(series_matrix(ct, node), classical, quantum)
    assert_matches_neumann(m, m.size)


# ----------------------------------------------------------------- hbar

def test_hbar_rescale_pairs():
    series = quantum_period_case("A1", 1, 3)
    scaled = hbar_rescale(series, 2)
    assert scaled == (
        (Fraction(1), 0),
        (Fraction(1), -2),
        (Fraction(1, 4), -4),
        (Fraction(1, 36), -6),
    )


@pytest.mark.parametrize("ct,node,c,D", [
    ("A1", 1, 2, 4),
    ("A3", 2, 4, 3),
    ("D4", 1, 6, 2),
    ("B5", 5, 10, 3),
])
def test_hbar_rescale_symbolic_rerun(ct, node, c, D):
    _, _, m = setup_case(ct, node)
    assert hbar_rescale_consistent(m, c, D)


# -------------------------------------------------------- scalar operators

def test_ratfunc_make_reduces_to_monic_coprime_form():
    R = RatFunc.make
    # 2(1 + q) / (4(q^2 - 1)) = (1/2) / (q - 1)
    assert R((2, 2), (-4, 0, 4)) == RatFunc((Fraction(1, 2),),
                                            (Fraction(-1), Fraction(1)))
    # (1 - q^2) / 2 over 3(1 + q), with a trailing zero on top
    assert R((Fraction(1, 2), 0, Fraction(-1, 2), 0), (3, 3)) == \
        RatFunc((Fraction(1, 6), Fraction(-1, 6)), (Fraction(1),))
    # a negative leading denominator coefficient moves its sign up
    assert R((1,), (0, -2)) == RatFunc((Fraction(-1, 2),),
                                       (Fraction(0), Fraction(1)))
    assert R((0, 0), (5, 7)) == RatFunc((), (Fraction(1),))
    # a one-term denominator c q^e with e > 0 still shares q with the top
    assert R((0, 1), (0, 2)) == RatFunc((Fraction(1, 2),), (Fraction(1),))
    assert R((0, 0, 3), (0, 0, 0, -6)) == RatFunc((Fraction(-1, 2),),
                                                 (Fraction(0), Fraction(1)))
    with pytest.raises(ZeroDivisionError):
        R((1,), (0, 0))


small_rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
dense_polys = st.lists(small_rationals, max_size=4).map(tuple)


@settings(max_examples=200, deadline=None)
@given(dense_polys, dense_polys, dense_polys, st.integers(0, 3),
       st.integers(0, 2))
def test_ratfunc_make_matches_euclid_reference(a, b, g, valuation, pad):
    # a common factor q^valuation g, and trailing zeros on top, so that
    # the gcd has work to do, also for one-term denominators
    g = (0,) * valuation + (g if any(g) else (1,))
    num, den = _pmul(a, g) + (0,) * pad, _pmul(b, g)
    if not den:
        with pytest.raises(ZeroDivisionError):
            RatFunc.make(num, den)
        return
    assert RatFunc.make(num, den) == reference_ratfunc(num, den)


def test_scalar_operator_trivial():
    op = cyclic_scalar_operator(one_by_one(3), 0)
    assert op.order == 1
    assert op.coefficients == (RatFunc.make((-3,)), RatFunc.make((1,)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scalar_operator_projective(n):
    _, _, m = setup_case(f"A{n}", 1)
    op = cyclic_scalar_operator(m, m.size - 1)
    assert op.order == n + 1
    want = [RatFunc.make((0, -1))]
    want += [RatFunc.make(())] * n
    want += [RatFunc.make((1,))]
    assert op.coefficients == tuple(want)


def test_scalar_operator_annihilates_series():
    _, _, m = setup_case("A2", 1)
    op = cyclic_scalar_operator(m, 2)
    series = quantum_period(m, 8)
    assert operator_annihilates(op, series)


def combo_scalar_operator(M, start):
    """Reference: Gaussian elimination that carries, for every reduced
    row, its combination of the original rows r_k."""
    n = M.size
    row = [RatFunc.make((int(i == start),)) for i in range(n)]
    top = max(e for p in M.cells.values() for (e,) in p)
    mrf = [[RatFunc.make(tuple(M.entry(r, c).get((e,), 0)
                               for e in range(top + 1)))
            for c in range(n)] for r in range(n)]
    basis = []
    while True:
        k = len(basis)
        combo = {k: RatFunc.make((1,))}
        work = list(row)
        for pivot, brow, bcombo in basis:
            f = work[pivot]
            if not f.num:
                continue
            work = [rf_sub(w, rf_mul(f, b)) for w, b in zip(work, brow)]
            for i, c in bcombo.items():
                combo[i] = rf_sub(combo.get(i, RatFunc.make((0,))),
                                  rf_mul(f, c))
        pivot = next((j for j in range(n) if work[j].num), None)
        if pivot is None:
            return ScalarOperator(tuple(combo.get(i, RatFunc.make((0,)))
                                        for i in range(k + 1)))
        inv = work[pivot]
        basis.append((pivot, [rf_div(w, inv) for w in work],
                      {i: rf_div(c, inv) for i, c in combo.items()}))
        row = [rf_add(rf_theta(row[j]),
                      reduce(rf_add, (rf_mul(row[i], mrf[i][j])
                                      for i in range(n)), RatFunc.make((0,))))
               for j in range(n)]


@pytest.mark.parametrize("ct,node", [
    ("A3", 2), ("A4", 2), ("D4", 1), ("B4", 1),
])
def test_scalar_operator_matches_combination_reference(ct, node):
    # every basis covector, the early dependencies among them included
    m = series_matrix(ct, node)
    for start in range(m.size):
        want = combo_scalar_operator(m, start)
        assert cyclic_scalar_operator(m, start) == want
        assert reference_cyclic_scalar_operator(m, start) == want


def test_scalar_operator_matches_combination_reference_past_q1():
    # A3 n2 with q read as q^2, plus a q^2 term beside a q^0 one
    base = series_matrix("A3", 2)
    cells = {rc: {(2 * e,): x for (e,), x in p.items()}
             for rc, p in base.cells.items()}
    cells[0, 0] = {(2,): Fraction(1, 3)}
    cells[1, 0] = {**cells[1, 0], (2,): -1}
    m = ConnMatrix(None, base.variables, base.size, cells)
    for start in range(m.size):
        want = combo_scalar_operator(m, start)
        assert cyclic_scalar_operator(m, start) == want
        assert reference_cyclic_scalar_operator(m, start) == want


def test_scalar_operator_laurent_entries():
    # M[0][1] = 1/(2q) is not a polynomial in q: refused by its entry
    V = ("q",)
    m = ConnMatrix(basis=None, variables=V, size=2, cells={
        (0, 1): {(-1,): Fraction(1, 2)},
        (1, 0): {(0,): 1}})
    with pytest.raises(ValueError,
                       match=r"entry \(0, 1\) has the negative power q\^-1"):
        cyclic_scalar_operator(m, 0)


@pytest.mark.parametrize("start,message", [
    (6, "covector index 6 out of range for a matrix of size 6"),
    (99, "covector index 99 out of range for a matrix of size 6"),
    (-1, "covector index -1 out of range for a matrix of size 6"),
    ((0, 0, 1, 0, 0, 0), "covector must be a basis index, not a tuple"),
    (Fraction(2), "covector must be a basis index, not a Fraction"),
])
def test_scalar_operator_refuses_bad_covector(start, message):
    _, _, m = setup_case("A3", 2)
    with pytest.raises(ValueError, match=message):
        cyclic_scalar_operator(m, start)


def test_scalar_operator_refuses_an_equivariant_matrix():
    d, reps, m = setup_case("A2", 1)
    with pytest.raises(ValueError, match="single variable q"):
        cyclic_scalar_operator(mihalcea_equivariant(d, m), 0)


@pytest.mark.parametrize("i", [0, 3, 6, 9])
def test_scalar_operator_unit_covector_annihilates_paired_series(i):
    # theta S = M S for the flat section S = sum_d S_d q^d, so the
    # operator from e_i kills coordinate i of S, sum_d S_{d,i} q^d;
    # checked on the series, not on another elimination
    _, _, m = setup_case("A4", 2)
    op = cyclic_scalar_operator(m, i)
    assert op == reference_cyclic_scalar_operator(m, i)
    assert op.order == m.size
    trace = basis_trace(quantum_period(m, 3 * op.order))
    paired = PeriodSeries(tuple(s[i] for s in trace))
    assert operator_annihilates(op, paired)
    wrong = PeriodSeries(paired.coefficients[:1] + tuple(
        c + 1 for c in paired.coefficients[1:]))
    assert not operator_annihilates(op, wrong)


REFERENCE_MATRICES = {spec: setup_case(*spec)[2]
                      for spec in (("A3", 2), ("B3", 1), ("D4", 1))}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(REFERENCE_MATRICES)), st.data())
def test_scalar_operator_integer_covectors_match_reference(spec, data):
    # a basis covector on the matrix times a rational c, so the scale s
    # of the integer view is drawn too
    base = REFERENCE_MATRICES[spec]
    c = data.draw(st.builds(Fraction, st.integers(-3, 3).filter(bool),
                            st.integers(1, 4)))
    m = ConnMatrix(None, base.variables, base.size,
                   {rc: {e: c * x for e, x in p.items()}
                    for rc, p in base.cells.items()})
    start = data.draw(st.integers(0, m.size - 1))
    want = combo_scalar_operator(m, start)
    assert cyclic_scalar_operator(m, start) == want
    assert reference_cyclic_scalar_operator(m, start) == want


# ------------------------------------------------- sparse Z[q] polynomials

# exponents up to 60, so that valuations of 20 and more (B5 n5's p_31 has
# a factor q^22) are drawn, and coefficients far past a machine word
sparse_polys = st.dictionaries(
    st.integers(0, 60),
    st.integers(-10**40, 10**40).filter(bool),
    min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(sparse_polys, sparse_polys, st.integers(0, 30))
def test_sparse_multiply_then_divide_round_trips(a, b, shift):
    b = {e + shift: c for e, c in b.items()}
    product = _smul(a, b)
    assert _sdiv(product, b) == a
    assert _sdiv(product, a) == b
    assert _sdiv({}, b) == {}


@settings(max_examples=100, deadline=None)
@given(sparse_polys, sparse_polys)
def test_sparse_product_matches_dense(a, b):
    def dense(p):
        return tuple(p.get(e, 0) for e in range(max(p) + 1))
    got = _smul(a, b)
    assert all(got.values())
    want = _pmul(dense(a), dense(b))
    assert tuple(got.get(e, 0) for e in range(len(want))) == want
    assert max(got, default=-1) < len(want)


def test_sparse_product_with_zero():
    assert _smul({}, {0: 1, 3: 2}) == {} == _smul({2: 3}, {}) == _smul({}, {})


@settings(max_examples=100, deadline=None)
@given(sparse_polys, sparse_polys, sparse_polys)
def test_sparse_inexact_division_raises(a, b, r):
    # b has degree >= 1 and r degree below it, so a b + r leaves the
    # remainder r in Q[q] and b cannot divide it in Z[q]
    b = {e + 1: c for e, c in b.items()}
    r = {e % max(b): c for e, c in r.items()}
    with pytest.raises(ArithmeticError, match="inexact"):
        _sdiv(padd(_smul(a, b), r), b)


@pytest.mark.parametrize("a,b", [
    ({0: 1}, {0: 2}),                  # coefficient, one-term divisor
    ({0: 3, 1: 3}, {0: 2, 1: 2}),      # coefficient, longer divisor
    ({21: 5}, {22: 1}),                # valuation, one-term divisor
    ({21: 1, 40: 1}, {22: 1, 23: 1}),  # valuation, longer divisor
    ({0: 1}, {0: 1, 1: 1}),            # degree
    ({0: 1, 2: 1}, {0: 1, 1: 1}),      # remainder 2
])
def test_sparse_inexact_division_examples(a, b):
    with pytest.raises(ArithmeticError, match="inexact"):
        _sdiv(a, b)


def test_sparse_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        _sdiv({0: 1}, {})
    with pytest.raises(ZeroDivisionError):
        _sdiv({}, {})


def padd(a, b):
    """The sum a + b of sparse polynomials, zero terms dropped."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


small_polys = st.dictionaries(st.integers(0, 8),
                              st.integers(-99, 99).filter(bool),
                              min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(small_polys, small_polys, small_polys, st.integers(1, 10**6))
def test_pgcd_returns_coprime_cofactors(g, a, b, content):
    # x / u = y / v is the primitive gcd, and u, v have no common factor:
    # Euclid over Q[q] cancels nothing from u / v
    def dense(p):
        return tuple(p.get(e, 0) for e in range(max(p) + 1))
    x, y = _smul({0: content}, _smul(g, a)), _smul(g, b)
    u, v = _pgcd(x, y)
    gcd = _sdiv(x, u)
    assert _sdiv(y, v) == gcd and math.gcd(*gcd.values()) == 1
    assert len(reference_ratfunc(dense(u), dense(v)).den) == len(dense(v))


# ------------------------------------- rows: polynomials kept by support

# A row is a polynomial in q whose coefficients are sparse integer
# vectors, {exponent: {column: nonzero int}}.  The examples write each
# vector as its dense list of slots, which ``support`` drops to the
# nonzero entries, and ``as_lists`` reads a result back as slot lists.

def support(row):
    out = {e: {j: x for j, x in enumerate(v) if x} for e, v in row.items()}
    return {e: v for e, v in out.items() if v}


def as_lists(row, n):
    return {e: [v.get(j, 0) for j in range(n)] for e, v in row.items()}


def column(row, j):
    return {e: v[j] for e, v in row.items() if j in v}


def is_support(row):
    # no empty vector and no zero entry
    return all(v and all(v.values()) for v in row.values())


@pytest.mark.parametrize("row,b,want", [
    # monomial divisor: every entry at once, exponents shifted down by 2
    ({3: [6, -4, 0], 5: [2, 8, 10]}, {2: 2},
     {1: [3, -2, 0], 3: [1, 4, 5]}),
    ({0: [0, 7]}, {0: -7}, {0: [0, -1]}),
    # general divisors: (1 + q) and (q^2 - 3q^5), long division from the top
    ({0: [1, 2], 1: [1, 1], 2: [0, -1]}, {0: 1, 1: 1},
     {0: [1, 2], 1: [0, -1]}),
    ({2: [1, 0, 2], 3: [0, 4, 0], 5: [-3, 0, -6], 6: [0, -12, 0]},
     {2: 1, 5: -3}, {0: [1, 0, 2], 1: [0, 4, 0]}),
])
def test_row_division_examples(row, b, want):
    n = len(next(iter(row.values())))
    got = _rdiv(support(row), b)
    assert is_support(got) and as_lists(got, n) == want


@pytest.mark.parametrize("row,b", [
    ({0: [4, 3]}, {0: 2}),                      # monomial: a remainder 1
    ({4: [0, 5], 6: [9, 0]}, {1: 3}),           # monomial: 5 mod 3
    ({0: [1, 2], 1: [1, 1]}, {0: 1, 1: 1}),     # general: remainder [0, 1]
    ({1: [2, 3]}, {0: 1, 1: 2}),                # general: 3 mod lead 2
    ({0: [1, 0]}, {1: 1}),                      # valuation, monomial
    ({1: [1, 1], 3: [1, 1]}, {2: 1, 3: 1}),     # valuation, general
])
def test_row_inexact_division_raises(row, b):
    with pytest.raises(ArithmeticError, match="inexact"):
        _rdiv(support(row), b)


@pytest.mark.parametrize("row", [{}, {0: {}}])
def test_row_division_by_zero(row):
    # refused even when no column holds a term to divide
    with pytest.raises(ZeroDivisionError):
        _rdiv(row, {})


row_slots = st.lists(st.integers(-10**30, 10**30), min_size=3, max_size=3)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 30), row_slots.filter(any),
                       min_size=1, max_size=6),
       sparse_polys, st.integers(0, 20))
def test_row_multiply_then_divide_round_trips(row, b, shift):
    b = {e + shift: c for e, c in b.items()}
    row = support(row)
    product = _rstep(b, row, {}, {}, {0: 1})
    assert _rdiv(product, b) == row
    assert _rstep({0: 1}, product, {}, {}, b) == row
    # each column of the quotient is the dense quotient of that column
    def dense(p):
        return tuple(p.get(e, 0) for e in range(max(p, default=-1) + 1))
    for j in range(3):
        assert _pexact_div(dense(column(product, j)), dense(b)) == \
            dense(column(row, j))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 20), row_slots, max_size=4),
       st.dictionaries(st.integers(0, 20), row_slots, max_size=4),
       sparse_polys, st.dictionaries(st.integers(0, 20),
                                     st.integers(-9, 9).filter(bool),
                                     max_size=3),
       sparse_polys, st.integers(0, 4), st.booleans(), st.booleans(),
       st.booleans())
def test_row_step_matches_column_by_column(w, b, p, f, d, shape, exact,
                                           scale, unit):
    # (p w - f b) / d against the scalar product and long division of
    # each column: d a unit, q^low, c q^low, as drawn, or times 1 + q (so
    # surely not a monomial); w and b multiplied by d when ``exact``; p
    # and f multiplied by d's lead when ``scale``, so that a monomial d
    # can divide the scalars instead, and p made d's coefficient times a
    # power of q when ``unit``, so that p is 1 once the scalars divide.
    # w and b may be empty or miss exponents the other has, and a drawn
    # all-zero vector leaves its exponent out; an inexact case must raise
    low = min(d)
    d = ({0: 1}, {low: 1}, {low: d[low]}, d, _smul(d, {0: 1, 1: 1}))[shape]
    w, b = support(w), support(b)
    if exact:
        w, b = (_rstep(d, r, {}, {}, {0: 1}) for r in (w, b))
    if unit:
        p = {max(p): d[min(d)]}
    if scale:
        lead = d[max(d)]
        p, f = ({e: c * lead for e, c in a.items()} for a in (p, f))
    before = repr((p, w, f, b, d))
    want = {}
    try:
        for j in range(3):
            minus_fb = {e: -c for e, c in _smul(f, column(b, j)).items()}
            want[j] = _sdiv(padd(_smul(p, column(w, j)), minus_fb), d)
    except ArithmeticError:
        with pytest.raises(ArithmeticError, match="inexact"):
            _rstep(p, w, f, b, d)
        return
    got = _rstep(p, w, f, b, d)
    assert is_support(got)
    assert {j: column(got, j) for j in range(3)} == want
    # a step never writes to its inputs
    assert repr((p, w, f, b, d)) == before


@pytest.mark.parametrize("p,w,f,b,d", [
    # a remainder in one entry after the combination: (2 w - b) / 3
    ({0: 2}, {0: [3, 1]}, {0: 1}, {0: [3, 0]}, {0: 3}),
    # the combination keeps q^0, which q^1 cannot divide
    ({0: 1}, {0: [1, 0], 1: [2, 2]}, {1: 1}, {0: [2, 2]}, {1: 1}),
    # c divides p and f but the product has too low a valuation
    ({0: 3}, {0: [1, 1]}, {0: 3}, {1: [1, 1]}, {1: 3}),
    # a general divisor: the combination q - 1 over q + 1
    ({1: 1}, {0: [1, 0]}, {0: 1}, {0: [1, 0]}, {0: 1, 1: 1}),
    # the gcd 2 of c = 6 with p and f divides the scalars, and the 3
    # left of c meets the remainder 2 of 2 w - 4 b = (2, 8)
    ({0: 2}, {0: [1, 4]}, {0: 4}, {0: [0, 0], 1: [1, 0]}, {0: 6}),
    # p = c = 5 shares w's vectors, and f b leaves q^-1, which d's q^1
    # cannot give: (5 q w - 5 b) / 5 q
    ({1: 5}, {0: [1, 2]}, {0: 5}, {0: [3, 0]}, {1: 5}),
    # the combination cancels q^0 and leaves 2 q^2, which q^2 + 3 cannot
    # divide
    ({0: 1}, {0: [0, 2], 2: [0, 2]}, {0: 1}, {0: [0, 2]}, {0: 3, 2: 1}),
])
def test_row_step_inexact_raises(p, w, f, b, d):
    w, b = support(w), support(b)
    with pytest.raises(ArithmeticError, match="inexact"):
        _rstep(p, w, f, b, d)


def test_row_step_examples():
    def step(p, w, f, b, d, n=2):
        return as_lists(_rstep(p, support(w), f, support(b), d), n)
    # (3q w - 3q b) / 3q: c = 3 divides both scalars
    assert step({1: 3}, {0: [1, 2]}, {1: 3}, {0: [1, 0]},
                {1: 3}) == {0: [0, 2]}
    # (2 w - b) / 3: the finished entries (6, 3) divide, q^0 cancels
    assert step({0: 2}, {0: [3, 0], 1: [1, 1]}, {0: 1},
                {0: [0, -3], 1: [2, 2]}, {0: 3}) == {0: [2, 1]}
    # (q w + b) / (1 + q) by long division
    assert step({1: 1}, {0: [1, 2]}, {0: -1}, {0: [1, 2]},
                {0: 1, 1: 1}) == {0: [1, 2]}
    # (4 w - 6 b) / 6: the gcd 2 comes off the scalars, 3 off each entry
    assert step({0: 4}, {0: [3, 6]}, {0: 6}, {0: [1, 2], 1: [0, 1]},
                {0: 6}) == {0: [1, 2], 1: [0, -1]}
    # a negative d: (-2 w - 2 b) / -2 = w + b
    assert step({0: -2}, {0: [1, 0]}, {0: 2}, {0: [0, 1]},
                {0: -2}) == {0: [1, 1]}
    # w = 1 * w / 1 is the row itself, and an empty f adds nothing
    w = {2: {1: 5}}
    assert _rstep({0: 1}, w, {}, {}, {0: 1}) == w
    # (w - q b) / 1 cancels an entry of w's vector and leaves w as it was
    w, b = {1: {0: 1, 1: 2}}, {0: {1: 2}}
    assert _rstep({0: 1}, w, {1: 1}, b, {0: 1}) == {1: {0: 1}}
    assert w == {1: {0: 1, 1: 2}}
    # an empty basis row, and f b into an exponent w does not have
    assert _rstep({0: 1}, w, {0: 1}, {}, {0: 1}) == w
    assert _rstep({0: 1}, w, {3: 2}, b, {0: 1}) == {1: {0: 1, 1: 2},
                                                     3: {1: -4}}


def test_b5_top_covector_reaches_general_row_division(monkeypatch):
    # B5 n5 divides its rows by a polynomial of more than one term; the
    # other series_ode cases only ever by monomials
    m = series_matrix("B5", 5)
    general = []
    original = period_gw._rdiv

    def counting(a, b):
        if len(b) > 1:
            general.append(b)
        return original(a, b)

    monkeypatch.setattr(period_gw, "_rdiv", counting)
    op = cyclic_scalar_operator(m, m.size - 1)
    assert op.order == 32
    assert general


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 4), st.data())
def test_scalar_operator_random_matrices_match_dense_reference(n, data):
    # entries with exponents 0..2 and rational coefficients take the
    # elimination through the scale factor s
    V = ("q",)
    entry = st.dictionaries(
        st.integers(0, 2).map(lambda e: (e,)),
        st.builds(Fraction, st.integers(-3, 3).filter(bool),
                  st.integers(1, 3)),
        max_size=2)
    entries = data.draw(st.lists(entry, min_size=n * n, max_size=n * n)
                        .filter(any))
    m = ConnMatrix(basis=None, variables=V, size=n,
                   cells={divmod(k, n): t
                          for k, t in enumerate(entries) if t})
    start = data.draw(st.integers(0, n - 1))
    assert cyclic_scalar_operator(m, start) == \
        reference_cyclic_scalar_operator(m, start)


@pytest.mark.parametrize("ct,node", SERIES_ODE_CASES)
def test_scalar_operator_matches_dense_reference(ct, node):
    m = series_matrix(ct, node)
    assert cyclic_scalar_operator(m, m.size - 1) == \
        reference_cyclic_scalar_operator(m, m.size - 1)


def operator_pin_cases():
    """Every minuscule (type, node) of at most 32 Schubert classes, then
    the odd quadrics B2-B6 node 1."""
    out = []
    for family, low, high in (("A", 1, 31), ("B", 2, 5), ("C", 2, 16),
                              ("D", 4, 16), ("E", 6, 7)):
        for n in range(low, high + 1):
            ct = CartanType(family, n)
            out += [(str(ct), k) for k in minuscule_nodes(ct)
                    if minuscule_dimension(ct, k) <= 32]
    return out + [(f"B{n}", 1) for n in range(2, 7)]


def test_cyclic_operators_match_their_pin():
    # the coefficients and the integer polynomials P_k of the operator
    # from the top covector, on 116 cases, hashed as the elimination on
    # dense integer-vector rows gave them
    digest = hashlib.sha256()
    cases = operator_pin_cases()
    for ct, node in cases:
        d = build_root_datum(CartanType.parse(ct))
        m = fw_matrix(d, minuscule_coset_reps(d, node), node)
        op = cyclic_scalar_operator(m, m.size - 1)
        digest.update(repr((ct, node, op.coefficients,
                            [sorted(p.items()) for p in op._polys])).encode())
    assert len(cases) == 116
    assert digest.hexdigest() == \
        "4fae54ed358c461b03308b6b32875c8a74723af83d8ec847b3749d9dbaaec666"


def power_loop_cleared(op):
    """The p_k times the common multiple of their denominators that takes
    in each denominator not yet dividing it, as dense tuples over Q."""
    common = (Fraction(1),)
    for c in op.coefficients:
        if _pdivmod(common, c.den)[1]:
            common = _pmul(common, c.den)
    return [_pmul(c.num, _pdivmod(common, c.den)[0])
            for c in op.coefficients]


def power_loop_annihilates(op, series, shift):
    """Reference: sum_k p_k theta^k on the series with theta^k evaluated
    as explicit powers (shift + m - j) ** k."""
    cleared = power_loop_cleared(op)
    coeffs = series.coefficients
    for m in range(len(coeffs)):
        total = sum(pj * (shift + m - j) ** k * coeffs[m - j]
                    for k, poly in enumerate(cleared)
                    for j, pj in enumerate(poly) if j <= m)
        if total != 0:
            return False
    return True


@pytest.mark.parametrize("h", [Fraction(1, 2), Fraction(2, 3), Fraction(3)])
def test_operator_annihilates_matches_power_loop(h):
    op = bessel_operator_from_matrix(h)
    series = equivariant_bessel(h, 10)
    perturbed = ScalarOperator(
        (rf_add(op.coefficients[0], RatFunc.make((0, 0, Fraction(1, 5)))),)
        + op.coefficients[1:])
    for shift in (h, h + 1, Fraction(0)):
        for candidate in (op, perturbed):
            assert operator_annihilates(candidate, series, shift) == \
                power_loop_annihilates(candidate, series, shift)
    assert operator_annihilates(op, series, shift=h)
    assert not operator_annihilates(perturbed, series, shift=h)


@pytest.mark.parametrize("ct,node", [("B5", 5), ("D4", 1)])
def test_operator_annihilates_matches_power_loop_on_periods(ct, node):
    # B5 n5 has cubic denominators; D4 n1 is theta^7 - 4q theta - 2q
    m = series_matrix(ct, node)
    op = cyclic_scalar_operator(m, m.size - 1)
    series = quantum_period(m, 2 * m.size)
    verdicts = []
    for degree in (None, 1, m.size, 2 * m.size):
        coeffs = list(series.coefficients)
        if degree is not None:
            coeffs[degree] += Fraction(1, 7)
        candidate = PeriodSeries(tuple(coeffs))
        for shift in (0, Fraction(1, 2), -3, Fraction(2, 3)):
            got = operator_annihilates(op, candidate, shift)
            assert got == power_loop_annihilates(op, candidate, shift)
            verdicts.append(got)
    assert verdicts == [True] + [False] * 15


# q, q^2 (1 + q), ... share factors, so the common multiple of the
# reference (take in each denominator that does not divide it yet) is
# neither their lcm nor their product for some orders of the p_k
SHARED_DENOMINATORS = ((1,), (0, 1), (0, 0, 1), (1, 1), (0, 1, 1),
                       (0, 0, 1, 1), (1, 0, 1))


@st.composite
def shared_denominator_operators(draw):
    coefficients = [
        RatFunc.make(draw(dense_polys), draw(st.sampled_from(
            SHARED_DENOMINATORS)))
        for _ in range(draw(st.integers(2, 4)))]
    return ScalarOperator(tuple(coefficients))


def solved_series(cleared, shift, length):
    """c_0 = 1 and each later c_i solved so that the q^(i + j0) term of
    the cleared operator on the series vanishes, j0 its lowest q-power,
    wherever the indicial polynomial at shift + i allows it."""
    j0 = min(j for poly in cleared for j, x in enumerate(poly) if x)
    coeffs = [Fraction(1)]
    for i in range(1, length):
        rest = sum(pj * (shift + i + j0 - j) ** k * coeffs[i + j0 - j]
                   for k, poly in enumerate(cleared)
                   for j, pj in enumerate(poly) if j0 < j <= i + j0)
        lead = sum(poly[j0] * (shift + i) ** k
                   for k, poly in enumerate(cleared) if len(poly) > j0)
        coeffs.append(-rest / lead if lead else Fraction(1))
    return coeffs


@settings(max_examples=200, deadline=None)
@given(shared_denominator_operators(),
       st.sampled_from((0, 1, Fraction(1, 2), Fraction(-2, 3))), st.data())
def test_operator_annihilates_matches_power_loop_on_shared_denominators(
        op, shift, data):
    # the verdict moves with the power of q in the common multiple when
    # the series ends near the operator's lowest q-power j0: a series
    # killed past its first term, cut there and perhaps perturbed
    cleared = power_loop_cleared(op)
    if not any(cleared):
        return
    j0 = min(j for poly in cleared for j, x in enumerate(poly) if x)
    length = max(1, j0 + data.draw(st.integers(-2, 3)))
    coeffs = solved_series(cleared, shift, length)
    spot = data.draw(st.integers(-1, length - 1))
    if spot >= 0:
        coeffs[spot] += Fraction(1, 7)
    series = PeriodSeries(tuple(coeffs))
    assert operator_annihilates(op, series, shift) == \
        power_loop_annihilates(op, series, shift)


def test_operator_annihilates_refuses_float_shift():
    # 1/3 as a float is not 1/3: it must not give a verdict
    h = Fraction(1, 3)
    op = bessel_operator_from_matrix(h)
    series = equivariant_bessel(h, 10)
    assert operator_annihilates(op, series, h)
    with pytest.raises(TypeError, match="float"):
        operator_annihilates(op, series, 1 / 3)


def test_operator_annihilates_detects_failure():
    series = quantum_period_case("A1", 1, 4)
    bad = ScalarOperator((RatFunc.make((1,)), RatFunc.make((1,))))
    assert not operator_annihilates(bad, series)


def q_swap_matrix():
    # theta S = M S with M = [[0, q], [1, 0]]: from e_0 the elimination's
    # polynomials share the factor q, which the operator sheds
    return ConnMatrix(None, ("q",), 2, {(0, 1): {(1,): Fraction(1)},
                                        (1, 0): {(0,): Fraction(1)}})


@pytest.mark.parametrize("ct,node", SERIES_ODE_CASES + [
    ("E7", 7), ("A3", 2), (None, None)])
def test_integer_first_verdicts_match_cleared_route(ct, node):
    # the cyclic operator tries its own integer polynomials first; its
    # verdicts must be those of the same coefficients built by hand,
    # which take the cleared route alone: on the series each covector
    # pairs with, to depths 1, size and 2 size and cut near the cleared
    # form's lowest q-power, at three shifts; and, at shift 0 (the shift
    # at which the unperturbed series is killed), with each of its first
    # size + 1 coefficients perturbed, cut after the perturbed one (every
    # seventh on E7 n7, where a rejection re-clears 57 coefficients by
    # hand in about 10 ms)
    m = q_swap_matrix() if ct is None else series_matrix(ct, node)
    trace = basis_trace(quantum_period(m, 2 * m.size))
    for start in sorted({0, m.size // 2, m.size - 1}):
        op = cyclic_scalar_operator(m, start)
        hand = ScalarOperator(op.coefficients)
        assert op == hand and hash(op) == hash(hand)
        assert op.order == hand.order
        paired = [s[start] for s in trace]
        j0 = min(j for poly in power_loop_cleared(hand)
                 for j, x in enumerate(poly) if x)
        cuts = [paired[:n] for n in sorted(
            {2, m.size + 1, 2 * m.size + 1} |
            {max(1, j0 + d) for d in range(-2, 4)})]
        perturbed = [paired[:i] + [paired[i] + Fraction(1, 7)]
                     for i in range(0, m.size + 1, 1 if m.size < 56 else 7)]
        for coeffs, shifts in [(c, (0, Fraction(1, 3), 2)) for c in cuts] + \
                [(c, (0,)) for c in perturbed]:
            series = PeriodSeries(tuple(coeffs))
            for shift in shifts:
                assert operator_annihilates(op, series, shift) == \
                    operator_annihilates(hand, series, shift)
        assert operator_annihilates(op, PeriodSeries(tuple(paired)))


def test_integer_form_rejection_is_decided_on_the_cleared_form():
    # p_0 = 1/q and p_1 = 1/(q (1 + q)): the cleared form takes in q, then
    # q (1 + q), which q does not divide, so it is q^2 (1 + q) times the
    # operator, q times the integer form P = (1 + q, 1, q + q^2).  On c_0
    # alone P leaves 1 at q^0 and is refused; the cleared form, with no
    # q^0 term, accepts, as the hand-built operator does.  No operator of
    # the suite's matrices rejects on its integer form and then accepts,
    # so the integer form is given here as the cyclic reduction would
    op = ScalarOperator((RatFunc.make((1,), (0, 1)),
                         RatFunc.make((1,), (0, 1, 1)), RatFunc.make((1,))))
    op._polys = ({0: 1, 1: 1}, {0: 1}, {1: 1, 2: 1})
    series = PeriodSeries((Fraction(1),))
    assert not period_gw._kills(op._polys, [1], 0)
    assert operator_annihilates(op, series)
    assert operator_annihilates(ScalarOperator(op.coefficients), series)
    assert not operator_annihilates(op, PeriodSeries((1, 0)))


def test_cleared_form_is_built_once_per_operator(monkeypatch):
    # a hand-built operator clears its 2 (order + 1) coefficient tuples on
    # its first check and keeps the cleared form for every later one; a
    # cyclic-built one clears only at its first rejection
    m = series_matrix("E6", 1)
    op = cyclic_scalar_operator(m, m.size - 1)
    hand = ScalarOperator(op.coefficients)
    series = quantum_period(m, 2 * m.size)
    bad = PeriodSeries(series.coefficients[:-1] +
                       (series.coefficients[-1] + 1,))
    calls = []
    original = period_gw._cleared
    monkeypatch.setattr(period_gw, "_cleared",
                        lambda p: (calls.append(p), original(p))[1])
    assert operator_annihilates(hand, series)
    assert not operator_annihilates(hand, bad)
    assert len(calls) == 2 * (hand.order + 1)
    assert operator_annihilates(op, series)
    assert len(calls) == 2 * (op.order + 1)
    assert not operator_annihilates(op, bad)
    assert not operator_annihilates(op, bad)
    assert len(calls) == 4 * (op.order + 1)
    assert hand == op and hash(hand) == hash(op)


@pytest.mark.parametrize("ct,node", SERIES_ODE_CASES)
def test_cyclic_operator_check_clears_no_coefficient(monkeypatch, ct, node):
    # the check of the true period runs on the elimination's integer
    # polynomials and accepts with no coefficient cleared
    m = series_matrix(ct, node)
    want = reference_cyclic_scalar_operator(m, m.size - 1)

    def never(*args):
        raise AssertionError("a coefficient was cleared")

    monkeypatch.setattr(period_gw, "_cleared", never)
    op = cyclic_scalar_operator(m, m.size - 1)
    assert op == want and op.order == want.order
    assert operator_annihilates(op, quantum_period(m, 2 * m.size))


# ------------------------------------------------------------- D4 quadric

def d4_matrix():
    _, _, m = setup_case("D4", 1)
    return m


def test_d4_split_kernel_and_basis():
    # the cells of columns 3 and 4 agree, so e_3 - e_4 is killed in every
    # power of q; on the complement e_0, e_1, e_2, e_3 + e_4, e_5, e_6,
    # e_7 the image of e_3 + e_4 is twice column 3, less row 4
    m = d4_matrix()
    assert m.column(3) and m.column(3) == m.column(4)
    split = d4_split(m)
    assert split._fields == ("restricted",)
    assert split.restricted.size == 7
    assert split.restricted.column(3) == {
        r - (r > 4): {e: 2 * x for e, x in p.items()}
        for r, p in m.column(3).items() if r != 4}


def test_d4_restricted_matrix_golden():
    split = d4_split(d4_matrix())
    V = ("q",)
    q = LaurentPoly.var(V, "q")
    one = LaurentPoly.const(V, 1)
    two = LaurentPoly.const(V, 2)
    zero = LaurentPoly(V)
    want = (
        (zero, zero, zero, zero, zero, q, zero),
        (one, zero, zero, zero, zero, zero, q),
        (zero, one, zero, zero, zero, zero, zero),
        (zero, zero, one, zero, zero, zero, zero),
        (zero, zero, zero, two, zero, zero, zero),
        (zero, zero, zero, zero, one, zero, zero),
        (zero, zero, zero, zero, zero, one, zero),
    )
    assert split.restricted.entries == want


def test_d4_period_unchanged_by_restriction():
    m = d4_matrix()
    split = d4_split(m)
    full = quantum_period(m, 3)
    small = quantum_period(split.restricted, 3)
    assert full.coefficients == small.coefficients


def test_d4_scalar_operator_golden():
    # Eliminating the rank-7 invariant block to a scalar ODE gives
    # theta^7 - 4q*theta - 2q, i.e. the recurrence c_d = (4d-2) c_{d-1} / d^7.
    split = d4_split(d4_matrix())
    op = cyclic_scalar_operator(split.restricted, 6)
    assert op.order == 7
    want = [RatFunc.make((0, -2)), RatFunc.make((0, -4))]
    want += [RatFunc.make(())] * 5
    want += [RatFunc.make((1,))]
    assert op.coefficients == tuple(want)
    series = quantum_period(split.restricted, 10)
    assert operator_annihilates(op, series)
    # The recurrence forces positive coefficients, matching the period:
    # the sign-flipped variant theta^7 + 4q*theta + 2q would alternate.
    coeffs = series.coefficients
    for d in range(1, len(coeffs)):
        assert coeffs[d] == Fraction(4 * d - 2, d**7) * coeffs[d - 1]


def test_d4_scalar_operator_is_hypergeometric():
    # Rescaling q -> q/4 turns the operator into theta^7 - q(theta + 1/2),
    # the classical hypergeometric operator annihilating
    # 1F6(1/2; 1,1,1,1,1,1; q).
    split = d4_split(d4_matrix())
    op = cyclic_scalar_operator(split.restricted, 6)

    def rescale(rf):
        num = tuple(c * Fraction(1, 4) ** i for i, c in enumerate(rf.num))
        den = tuple(c * Fraction(1, 4) ** i for i, c in enumerate(rf.den))
        return RatFunc.make(num, den)

    scaled = tuple(rescale(c) for c in op.coefficients)
    hyper = (RatFunc.make((0, Fraction(-1, 2))), RatFunc.make((0, -1)))
    hyper += (RatFunc.make(()),) * 5 + (RatFunc.make((1,)),)
    assert scaled == hyper
    # Frobenius recurrence of 1F6(1/2; 1^6): a_d = (d - 1/2) a_{d-1} / d^7.
    a = [Fraction(1)]
    for d in range(1, 8):
        a.append(Fraction(2 * d - 1, 2) / Fraction(d) ** 7 * a[-1])
    hyper_series = PeriodSeries(coefficients=tuple(a))
    scaled_op = ScalarOperator(coefficients=scaled)
    assert operator_annihilates(scaled_op, hyper_series)


def test_d4_split_rejects_unequal_middle_columns():
    m = d4_matrix()
    cells = dict(m.cells)
    cells[5, 3] = {(0,): 2}
    with pytest.raises(ArithmeticError, match="middle columns disagree"):
        d4_split(ConnMatrix(m.basis, m.variables, m.size, cells))


def test_d4_split_rejects_a_non_invariant_complement():
    # rows 3 and 4 of the image of e_0 differ, while columns 3 and 4
    # still agree and the constant kernel is still one line
    m = d4_matrix()
    cells = dict(m.cells)
    cells[3, 0] = {(0,): 1}
    with pytest.raises(ArithmeticError, match="complement is not invariant"):
        d4_split(ConnMatrix(m.basis, m.variables, m.size, cells))


def test_d4_split_refuses_a_negative_power_of_q():
    m = d4_matrix()
    cells = {**m.cells, (0, 0): {(-1,): 1}}
    with pytest.raises(ValueError,
                       match=r"entry \(0, 0\) has the negative power q\^-1"):
        d4_split(ConnMatrix(m.basis, m.variables, m.size, cells))


def test_d4_split_rejects_wrong_size():
    _, _, m = setup_case("A3", 2)
    with pytest.raises(ValueError):
        d4_split(m)


@pytest.mark.parametrize("dropped,nullity", [((0,), 2), ((0, 7), 3)])
def test_d4_split_rejects_a_larger_constant_kernel(dropped, nullity):
    # emptying a column puts its basis vector in the joint kernel of the
    # classical and quantum parts
    m = d4_matrix()
    cells = {rc: e for rc, e in m.cells.items() if rc[1] not in dropped}
    with pytest.raises(ArithmeticError, match=f"nullity {nullity}$"):
        d4_split(ConnMatrix(m.basis, m.variables, m.size, cells))


# ------------------------------------------------------------- Bessel line

def test_equivariant_bessel_h0():
    series = equivariant_bessel(0, 6)
    for k, c in enumerate(series.coefficients):
        assert c == Fraction(1, math.factorial(k) ** 2)


def test_equivariant_bessel_h_half():
    series = equivariant_bessel(Fraction(1, 2), 3)
    # prod_{j<=k} 1/(j(j+1)) = 1/(k! (k+1)!)
    assert series.coefficients == (
        Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(1, 144),
    )


def test_equivariant_bessel_rejects_degenerate():
    with pytest.raises(ValueError):
        equivariant_bessel(Fraction(-1, 2), 3)
    with pytest.raises(ValueError):
        equivariant_bessel(-1, 3)


def test_bessel_operator_golden():
    op = bessel_operator_from_matrix(Fraction(1, 2))
    assert op.order == 2
    assert op.coefficients == (
        RatFunc.make((Fraction(-1, 4), -1)),
        RatFunc.make(()),
        RatFunc.make((1,)),
    )


@pytest.mark.parametrize("h", [Fraction(0), Fraction(1, 2), Fraction(2, 3)])
def test_bessel_operator_annihilates_shifted(h):
    op = bessel_operator_from_matrix(h)
    series = equivariant_bessel(h, 8)
    assert operator_annihilates(op, series, shift=h)
    if h:
        assert not operator_annihilates(op, series)


def test_bessel_wronskian_small():
    report = bessel_numeric_checks(2.0, 0.0)
    assert report["wronskian_error"] < 1e-8


@pytest.mark.parametrize("y", [1.0, 2.0, 10.0])
@pytest.mark.parametrize("nu", [0.0, 0.5, 1.3])
def test_bessel_wronskian_grid(y, nu):
    assert bessel_numeric_checks(y, nu)["wronskian_error"] < 1e-8


def test_bessel_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for y, nu in [(1.0, 0.0), (2.0, 0.5), (10.0, 1.3)]:
        report = bessel_numeric_checks(y, nu)
        for key, fn, order in [
            ("i_nu", mpmath.besseli, nu),
            ("i_nu_plus_1", mpmath.besseli, nu + 1.0),
            ("k_nu", mpmath.besselk, nu),
            ("k_nu_plus_1", mpmath.besselk, nu + 1.0),
        ]:
            want = float(fn(order, y))
            assert abs(report[key] - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("y", [1e-4, 0.01, 0.1, 15.0, 25.0, 50.0])
@pytest.mark.parametrize("nu", [0.0, 1.3, 3.7, 8.0, 20.0])
def test_bessel_corners_against_mpmath(y, nu):
    # small y puts K's integrand peak far out and makes I_nu tiny; large
    # y makes K tiny: both need relative, not absolute, stopping rules
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    report = bessel_numeric_checks(y, nu)
    for key, fn, order in [
        ("i_nu", mpmath.besseli, nu),
        ("i_nu_plus_1", mpmath.besseli, nu + 1.0),
        ("k_nu", mpmath.besselk, nu),
        ("k_nu_plus_1", mpmath.besselk, nu + 1.0),
    ]:
        want = float(fn(order, y))
        assert abs(report[key] - want) <= 1e-12 * abs(want), key


@pytest.mark.parametrize("y,nu", [(0.5, 100.0), (0.562, 100.0),
                                  (50.0, 170.5)])
def test_bessel_k_at_large_nu_against_mpmath(y, nu):
    # K's integrand peaks with a width falling like 1/sqrt(nu), and the
    # trapezoid step shrinks with it: with a fixed step of 0.1, K_100(0.562)
    # was off by 3.5e-9 and K_170.5(50) by 3.2e-5 relative.  At (50, 170.5)
    # Gamma(nu + 2) overflows, and I's series starts from its logarithm
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for order in (nu, nu + 1.0):
        want = float(mpmath.besselk(order, y))
        assert abs(_bessel_k_integral(y, order) - want) <= 1e-12 * want
    report = bessel_numeric_checks(y, nu)
    assert report["wronskian_error"] < 1e-12
    for key, order in (("i_nu", nu), ("i_nu_plus_1", nu + 1.0)):
        want = float(mpmath.besseli(order, y))
        assert abs(report[key] - want) <= 1e-12 * want


@pytest.mark.parametrize("y,nu", [(10.0, 171.0), (10.0, 172.0),
                                  (50.0, 300.0), (50.0, 301.0),
                                  (1e-12, 21.0)])
def test_bessel_k_past_cosh_overflow_against_mpmath(y, nu):
    # cosh(nu t) overflows inside K's integrand while K_nu(y) is finite
    # (about 2.6e276 at (1e-12, 21)); the integrand is then summed as
    # exp(nu t - y cosh t) (1 + e^-2nu t) / 2
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    want = float(mpmath.besselk(nu, y))
    assert abs(_bessel_k_integral(y, nu) - want) <= 1e-13 * want
    assert bessel_numeric_checks(y, nu)["wronskian_error"] < 1e-12


def test_bessel_k_beyond_float_range_still_refused():
    # K_200(0.01) is about 3e832: the second sum overflows too
    with pytest.raises(OverflowError):
        _bessel_k_integral(0.01, 200.0)
    with pytest.raises(ValueError, match="beyond float range"):
        bessel_numeric_checks(0.01, 200.0)


@pytest.mark.parametrize("y,nu", [(30.0, 171.0), (30.0, 250.0),
                                  (50.0, 300.0)])
def test_bessel_i_past_gamma_overflow_against_mpmath(y, nu):
    # Gamma(nu + 1) is beyond float range, I_nu(y) is not
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    want = float(mpmath.besseli(nu, y))
    assert abs(_bessel_i_series(y, nu) - want) <= 1e-12 * want


@pytest.mark.parametrize("y", [1e-9, 1e-8, 1e-7])
@pytest.mark.parametrize("nu", [0.0, 1.0, 10.0, 20.0])
def test_bessel_wronskian_relative_at_tiny_y(y, nu):
    # W = 1/y is up to 1e9 here: the error is |y W - 1|, not |W - 1/y|
    report = bessel_numeric_checks(y, nu)
    assert report["wronskian_error"] < 1e-8, report
    assert report["wronskian_error"] == abs(y * report["wronskian"] - 1)


@pytest.mark.parametrize("nu", [float("nan"), float("inf"), -float("inf"),
                                -1.0, -1.5, -3.7])
def test_bessel_rejects_bad_nu(nu):
    with pytest.raises(ValueError, match=f"nu = {nu} must be finite"):
        bessel_numeric_checks(1.0, nu)


def test_bessel_accepts_nu_above_minus_one():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    for nu in (-0.5, -0.9):
        report = bessel_numeric_checks(1.0, nu)
        assert report["wronskian_error"] < 1e-8
        want = float(mpmath.besseli(nu, 1.0))
        assert abs(report["i_nu"] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("y,nu", [(0.01, 200.0), (1.0, 200.0),
                                  (1e-12, 30.0),
                                  # K_2 ~ 2 / y^2: the trapezoid sum
                                  # reaches inf with no OverflowError
                                  (1e-154, 1.0), (1e-300, 1.0)])
def test_bessel_overflow_names_y_and_nu(y, nu):
    with pytest.raises(ValueError, match=f"y = {y}, nu = {nu} is beyond "
                                         "float range"):
        bessel_numeric_checks(y, nu)


def test_bessel_rejects_bad_y():
    with pytest.raises(ValueError):
        bessel_numeric_checks(0.0, 0.0)
    with pytest.raises(ValueError):
        bessel_numeric_checks(51.0, 0.0)


# ---------------------------------------------------------------- Jacobian

@pytest.mark.parametrize("n", [1, 2, 3])
def test_jacobian_pn(n):
    assert jacobian_pn_check(n)


def test_jacobian_rejects_bad_n():
    with pytest.raises(ValueError):
        jacobian_pn_check(0)


# ------------------------------------------------------------------- misc

def test_period_series_fields():
    s = PeriodSeries((Fraction(1),))
    assert basis_trace(s) is None
