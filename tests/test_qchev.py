from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmirror import qchev, rootsys, weyl
from mmirror.rootsys import CartanType, build_root_datum
from mmirror.qchev import (
    ConnMatrix,
    check_homogeneous,
    fw_matrix,
    lift_equivariant,
    matrix_relation,
    mihalcea_equivariant,
    poincare_self_adjoint,
    quantum_chevalley_minuscule,
)
from mmirror.cli import _load_case_list, _wgamma_positions
from mmirror.minrep import coweight_diagonal, fg_connection
from mmirror.period_gw import d4_split
from mmirror.weyl import (
    bruhat_covers_up,
    minuscule_coset_reps,
    pd,
    reflect_coset,
    w_gamma_set,
)
from reference import (
    LaurentPoly,
    index_of,
    multiply,
    pi_P,
    reflection,
    rep_elements,
    special_elements,
    subs,
    unpruned_covers_up,
    unpruned_fw_matrix,
    weighted_degree,
)


def D(s):
    return build_root_datum(CartanType.parse(s))


def case(ct, node):
    d = D(ct)
    reps = minuscule_coset_reps(d, node)
    return d, reps


# ----------------------------------------------------------- LaurentPoly

VARS = ("x", "y")

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)
exponents = st.tuples(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
polys = st.dictionaries(exponents, coeffs, max_size=5).map(
    lambda t: LaurentPoly(VARS, t)
)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == LaurentPoly(VARS)
    assert a - b == a + (-b)


@settings(max_examples=30, deadline=None)
@given(polys, st.integers(min_value=0, max_value=4))
def test_poly_power_matches_repeated_product(a, n):
    expected = LaurentPoly.const(VARS, 1)
    for _ in range(n):
        expected = expected * a
    assert a ** n == expected


def test_poly_power_laurent_two_variables(monkeypatch):
    p = LaurentPoly(VARS, {(1, -1): Fraction(2), (-2, 0): Fraction(-1, 3),
                           (0, 1): Fraction(1)})
    expected = LaurentPoly.const(VARS, 1)
    for n in range(10):
        assert p ** n == expected
        expected = expected * p
    # square-and-multiply: one square per bit after the leading one, one
    # product per set bit, and no square after the last bit
    products = []
    original = LaurentPoly.__mul__

    def counted(a, b):
        products.append(1)
        return original(a, b)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    for n in range(1, 10):
        products.clear()
        p ** n
        assert len(products) == n.bit_length() - 1 + bin(n).count("1")


def test_poly_no_zero_terms_stored():
    p = LaurentPoly(VARS, {(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in p.terms
    q = p - p
    assert q.is_zero() and q.terms == {}


def test_poly_render_and_subs():
    p = (
        LaurentPoly.var(VARS, "x", 2)
        - 3 * LaurentPoly.var(VARS, "y")
        + LaurentPoly.const(VARS, Fraction(1, 2))
    )
    assert p.render() == "1/2-3*y+x^2"
    assert subs(p, {"x": 2, "y": Fraction(1, 3)}) == Fraction(7, 2)


def test_poly_laurent_negative_exponent():
    x = LaurentPoly.var(VARS, "x")
    xinv = LaurentPoly.var(VARS, "x", -1)
    assert x * xinv == LaurentPoly.const(VARS, 1)
    assert xinv.render() == "x^-1"


def test_poly_weighted_degree():
    p = LaurentPoly(VARS, {(2, 0): 1, (0, 1): 5})
    assert weighted_degree(p, {"x": 1, "y": 2}) == 2
    assert weighted_degree(p, {"x": 1, "y": 1}) is None
    assert weighted_degree(LaurentPoly(VARS), {"x": 1, "y": 1}) is None


# --------------------------------------- classical (q^0) Chevalley part

def test_projective_space_jordan_block():
    d, reps = case("A3", 1)  # P^3
    m = fw_matrix(d, reps, 1)
    for r in range(4):
        for c in range(4):
            assert m.entry(r, c).get((0,), 0) == int(r == c + 1)


def test_gr24_first_column():
    d, reps = case("A3", 2)
    m = fw_matrix(d, reps, 2)
    col = [m.entry(r, 1).get((0,), 0) for r in range(m.size)]
    # sigma_1 . sigma_1 = sigma_11 + sigma_2 (indices 2 and 3)
    assert col == [0, 0, 1, 1, 0, 0]


def test_classical_nilpotent():
    # the classical part raises the length grading by exactly one, so it
    # is nilpotent
    for ct, node in [("A3", 2), ("B3", 3), ("D4", 1)]:
        d, reps = case(ct, node)
        m = fw_matrix(d, reps, node)
        for (r, c), e in m.cells.items():
            if e.get((0,)):
                assert reps.lengths[r] == reps.lengths[c] + 1


def test_classical_coefficients_all_one_minuscule():
    for ct, node in [("A3", 2), ("B3", 3), ("C3", 1), ("D4", 3), ("E6", 1)]:
        d, reps = case(ct, node)
        m = fw_matrix(d, reps, node)
        for e in m.cells.values():
            assert e.get((0,), 0) in (0, 1)


# --------------------------------------------------- quantum Chevalley

def test_p1_matrix():
    d, reps = case("A1", 1)
    m = quantum_chevalley_minuscule(d, reps, 1)
    q = LaurentPoly.var(("q",), "q")
    one = LaurentPoly.const(("q",), 1)
    zero = LaurentPoly(("q",))
    assert m.entries == ((zero, q), (one, zero))


def test_projective_top_column_is_q():
    # sigma_1 * sigma_{n-1} = q on P^{n-1}
    for n in (2, 3, 4, 5):
        d, reps = case(f"A{n - 1}", 1)
        m = quantum_chevalley_minuscule(d, reps, 1)
        assert m.column(n - 1) == {0: {(1,): 1}}


def test_gr24_golden_products():
    d, reps = case("A3", 2)
    m = quantum_chevalley_minuscule(d, reps, 2)
    q, one = {(1,): 1}, {(0,): 1}
    col = m.column
    # basis order: 0 empty, 1 box, 2 (1,1), 3 (2), 4 (2,1), 5 (2,2)
    assert col(1) == {2: one, 3: one}          # s1*s1 = s11 + s2
    assert col(2) == {4: one}                  # s1*s11 = s21
    assert col(3) == {4: one}                  # s1*s2 = s21
    assert col(4) == {5: one, 0: q}            # s1*s21 = s22 + q
    # s1*s22 = q s1: forced by the degree grading (deg q = 4) and by
    # self-adjointness against s1*s21 = s22 + q
    assert col(5) == {1: q}


def test_quantum_column_iff_w_gamma():
    for ct, node in [("A3", 2), ("B3", 3), ("C3", 1), ("D4", 1)]:
        d, reps = case(ct, node)
        m = quantum_chevalley_minuscule(d, reps, node)
        wg = set(w_gamma_set(d, reps))
        for c in range(m.size):
            has_q = any(
                any(k[0] > 0 for k in e) for e in m.column(c).values()
            )
            assert has_q == (c in wg)


def test_d4_quadric_printed_matrix():
    d, reps = case("D4", 1)
    m = quantum_chevalley_minuscule(d, reps, 1)
    q, one = {(1,): 1}, {(0,): 1}
    expected_cols = {
        0: {1: one},
        1: {2: one},
        2: {3: one, 4: one},
        3: {5: one},
        4: {5: one},
        5: {6: one},
        6: {7: one, 0: q},
        7: {1: q},
    }
    for c in range(8):
        assert m.column(c) == expected_cols[c], f"column {c}"
    # sigma3+ - sigma3- spans the kernel: columns 3 and 4 coincide,
    # and rows 3 and 4 coincide
    assert m.column(3) == m.column(4)
    assert m.entries[3] == m.entries[4]


# ------------------------------------------------------ general FW rule

def _column(m, c):
    """Column c of a Chevalley matrix as {(q exponent, row): coefficient}."""
    return {
        (exps[0], r): coeff
        for r, e in m.column(c).items()
        for exps, coeff in e.items()
    }


def test_fw_matches_minuscule_columnwise():
    # the general rule, column by column, against two independent
    # descriptions: the Bruhat covers of w (classical terms) and, for w in
    # W(gamma), the single term q at pi_P(w s_gamma) (quantum terms)
    for ct, node in [("A3", 2), ("B3", 3), ("C3", 1), ("D4", 1)]:
        d, reps = case(ct, node)
        p = reps.parabolic
        sgamma = reflection(d, p.gamma)
        wg = set(w_gamma_set(d, reps))
        m = fw_matrix(d, reps, node)
        for c, w in enumerate(rep_elements(d, reps)):
            got = _column(m, c)
            want = {}
            for beta, r in bruhat_covers_up(reps, c):
                key = (0, r)
                want[key] = want.get(key, 0) + beta.coroot[node - 1]
            if c in wg:
                target = pi_P(d, p.I_P, multiply(d, w, sgamma))
                want[(1, index_of(d, reps, target))] = 1
            assert got == want, (ct, node, c)


def test_fw_rejects_bad_input():
    d = D("A3")
    reps = minuscule_coset_reps(d, 2)
    with pytest.raises(ValueError):
        fw_matrix(d, reps, 3)  # node 3 lies in the Levi of node 2


# ------------------------------------- weights against Weyl products

def _product_route_column(d, reps, node, w):
    """The Fulton-Woodward rule on Weyl products: w s_beta is multiplied
    out, projected by pi_P, and measured by its canonical word."""
    p = reps.parabolic
    levi = {r.coeffs for r in p.levi_positive_roots}
    two_rho_diff = [2] * d.rank
    for r in p.levi_positive_roots:
        for k in range(d.rank):
            two_rho_diff[k] -= r.fw[k]
    col = {}
    for beta in d.positive_roots:
        if beta.coeffs in levi:
            continue
        coeff = beta.coroot[node - 1]
        s_beta = reflection(d, beta)
        cand = multiply(d, w, s_beta)
        target = pi_P(d, p.I_P, cand)
        if cand.length == w.length + 1 and target == cand:
            key = (0, index_of(d, reps, cand))
            col[key] = col.get(key, 0) + coeff
        drop = sum(t * cv for t, cv in zip(two_rho_diff, beta.coroot))
        if (cand.length == w.length - s_beta.length
                and target.length == w.length + 1 - drop):
            key = (coeff, index_of(d, reps, target))
            col[key] = col.get(key, 0) + coeff
    return {k: v for k, v in col.items() if v}


@pytest.mark.parametrize("ct,node", [
    ("A4", 2), ("B4", 4), ("C4", 1), ("D5", 5), ("B4", 1), ("E6", 6),
    ("E7", 7),
])
def test_weight_route_matches_product_route(ct, node):
    # fw_matrix, the Bruhat covers, Poincare duality and the W(gamma)
    # targets, all read off coset weights, against multiply / pi_P /
    # special_elements
    d, reps = case(ct, node)
    p = reps.parabolic
    m = fw_matrix(d, reps, node)
    levi = {r.coeffs for r in p.levi_positive_roots}
    se = special_elements(d, p)
    elts = rep_elements(d, reps)
    for c, w in enumerate(elts):
        assert _column(m, c) == _product_route_column(d, reps, node, w), c
        covers = []
        for beta in d.positive_roots:
            elt = multiply(d, w, reflection(d, beta))
            if (beta.coeffs not in levi and elt.length == w.length + 1
                    and pi_P(d, p.I_P, elt) == elt):
                covers.append((beta, index_of(d, reps, elt)))
        assert bruhat_covers_up(reps, c) == covers, c
    assert pd(d, reps) == tuple(
        index_of(d, reps, pi_P(d, p.I_P, multiply(d, multiply(d, se.w0, w),
                                                  se.w0P)))
        for w in elts
    )
    if p.gamma is not None:
        sgamma = reflection(d, p.gamma)
        assert _wgamma_positions(d, reps) == {
            (index_of(d, reps, pi_P(d, p.I_P, multiply(d, elts[c], sgamma))),
             c)
            for c in w_gamma_set(d, reps)
        }


def test_lengths_asked_only_where_a_term_is_possible(monkeypatch):
    # At a minuscule node the coset of w s_beta has length ell(w) +
    # ht(w.beta), so fw_matrix looks up a pair only when that height is 1
    # or 1 - drop, and the covers only when it is 1; the coset's length
    # is then the whole rule, so neither runs a descent.  On E7 n7 that
    # is 96 of the 1,512 pairs, 84 of them covers.
    d, reps = case("E7", 7)
    roots = reps.roots
    assert len(reps) * len(roots) == 1512
    two_rho_diff = [2 - x for x in reps.parabolic.two_rho_P]
    pairs = covers = 0
    for s, beta in enumerate(roots):
        drop = sum(map(mul, two_rho_diff, beta.coroot))
        for c, ell in enumerate(reps.lengths):
            up = reps.lengths[reflect_coset(reps, c, s)]
            pairs += up in (ell + 1, ell + 1 - drop)
            covers += up == ell + 1
    lookups, descents = [], []

    def counting(module, name, calls):
        original = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)

    counting(qchev, "reflect_coset", lookups)
    counting(weyl, "reflect_coset", lookups)
    counting(weyl, "descent", descents)
    counting(rootsys, "descent", descents)
    fw_matrix(d, reps, 7)
    assert len(lookups) == pairs == 96
    assert descents == []
    lookups.clear()
    for c in range(len(reps)):
        bruhat_covers_up(reps, c)
    assert len(lookups) == covers == 84
    assert descents == []


@pytest.mark.parametrize("cartan,node", [
    *[(e["cartan"], e["node"]) for e in _load_case_list()],
    ("A8", 4), ("D8", 8),
    ("B3", 2), ("C4", 3), ("D5", 3), ("E6", 2), ("E7", 1),
])
def test_pruned_rule_and_covers_match_unpruned_reference(cartan, node):
    # the height pruning skips only pairs that cannot give a term, and
    # the coset's length alone decides a term: against the rule on Weyl
    # elements, also at nodes that are not minuscule
    d, reps = case(cartan, node)
    assert fw_matrix(d, reps, node) == unpruned_fw_matrix(d, reps, node)
    for c, covers in enumerate(unpruned_covers_up(d, reps)):
        assert bruhat_covers_up(reps, c) == covers, c


def _assert_cells(m):
    """The cell invariant: every stored cell lies in the matrix and is a
    nonempty terms dict whose exponents are int tuples of the arity of
    m.variables and whose coefficients are nonzero ints; only an h-term
    on the diagonal (the equivariant lift's linear form) may be a
    Fraction.  The dense view is the cells as LaurentPoly over
    m.variables, with zero everywhere else."""
    for (r, c), e in m.cells.items():
        assert 0 <= r < m.size and 0 <= c < m.size
        assert type(e) is dict and e
        for exps, v in e.items():
            assert len(exps) == len(m.variables)
            assert all(type(x) is int for x in exps)
            assert v != 0
            h_term = any(x and name.startswith("h")
                         for name, x in zip(m.variables, exps))
            assert type(v) is int or (
                r == c and h_term and type(v) is Fraction), (r, c, exps, v)
    dense = m.entries
    assert len(dense) == m.size
    for r, row in enumerate(dense):
        assert len(row) == m.size
        for c, e in enumerate(row):
            assert e.variables == m.variables
            if (r, c) in m.cells:
                assert e.terms == m.cells[r, c]
            else:
                assert e.is_zero()


@pytest.mark.parametrize("ct,node", [("A4", 2), ("B4", 1), ("E6", 6)])
def test_fw_matrix_entries_are_clean(ct, node):
    d, reps = case(ct, node)
    _assert_cells(fw_matrix(d, reps, node))


@pytest.mark.parametrize("ct,node", [("A4", 2), ("C4", 1), ("D5", 5),
                                     ("E6", 6)])
def test_cell_invariant_of_every_builder(ct, node):
    d, reps = case(ct, node)
    m = fw_matrix(d, reps, node)
    fg = fg_connection(d, reps)
    scale, rows = coweight_diagonal(d, reps)
    for built in (m, mihalcea_equivariant(d, m), fg,
                  lift_equivariant(fg, rows, scale), m.mat_mul(m),
                  fg.mat_mul(m)):
        _assert_cells(built)


def test_cell_invariant_of_restriction_and_product():
    d, reps = case("D4", 1)
    restricted = d4_split(fw_matrix(d, reps, 1)).restricted
    _assert_cells(restricted)
    _assert_cells(restricted.mat_mul(restricted))
    # [[1, 1], [0, 0]] times [[1, q], [-1, 0]]: the (0, 0) terms cancel,
    # so the product keeps only the cell (0, 1) = q
    V = ("q",)
    one, q = {(0,): 1}, {(1,): 1}
    a = ConnMatrix(None, V, 2, {(0, 0): one, (0, 1): one})
    b = ConnMatrix(None, V, 2, {(0, 0): one, (0, 1): q, (1, 0): {(0,): -1}})
    prod = a.mat_mul(b)
    _assert_cells(prod)
    assert prod.cells == {(0, 1): q}


def test_odd_quadric_b3_products():
    d = D("B3")
    reps = minuscule_coset_reps(d, 1)
    assert list(reps.lengths) == [0, 1, 2, 3, 4, 5]
    m = fw_matrix(d, reps, 1)
    q, one, two = {(1,): 1}, {(0,): 1}, {(0,): 2}
    cols = {
        0: {1: one},
        1: {2: two},        # sigma_1 . sigma_1 = 2 sigma_2? no: see below
        2: {3: one},
        3: {4: one},
        4: {5: one, 0: q},
        5: {1: q},
    }
    # n = 3: sigma1*sigma_{n-1} = sigma1*sigma2 = 2 sigma3 lives in column 2
    cols[1] = {2: one}
    cols[2] = {3: two}
    for c in range(6):
        assert m.column(c) == cols[c], f"column {c}"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_odd_quadric_family(n):
    d = D(f"B{n}")
    reps = minuscule_coset_reps(d, 1)
    assert len(reps) == 2 * n
    m = fw_matrix(d, reps, 1)
    one, two, q = {(0,): 1}, {(0,): 2}, {(1,): 1}
    # middle step doubles
    assert m.entry(n, n - 1) == two
    # penultimate column gains +q at the bottom class
    assert m.column(2 * n - 2) == {2 * n - 1: one, 0: q}
    # top column wraps to q sigma_1
    assert m.column(2 * n - 1) == {1: q}


# ------------------------------------------------------- matrix relations

def test_relation_projective():
    for n in (1, 2, 3, 4):
        d, reps = case(f"A{n}", 1)
        m = quantum_chevalley_minuscule(d, reps, 1)
        assert matrix_relation(m, {(n + 1, 0): 1, (0, 1): -1})
        # and a wrong relation fails
        assert not matrix_relation(m, {(n + 1, 0): 1, (0, 1): 1})
    # a negative power of X or q is refused by name
    for rel in ({(-1, 0): 1}, {(1, 0): 1, (0, -1): 1}):
        with pytest.raises(ValueError, match="relation must be polynomial"):
            matrix_relation(m, rel)


def test_relation_odd_quadric_b3():
    d = D("B3")
    reps = minuscule_coset_reps(d, 1)
    m = fw_matrix(d, reps, 1)
    assert matrix_relation(m, {(6, 0): 1, (1, 1): -4})
    # the coefficient of q X is pinned: with -3 the left side is q M, not 0
    assert not matrix_relation(m, {(6, 0): 1, (1, 1): -3})
    # the dict is the relation the ring builds
    X = LaurentPoly.var(("X", "q"), "X")
    q = LaurentPoly.var(("X", "q"), "q")
    assert matrix_relation(m, (X ** 6 - 4 * q * X).terms)


def test_relation_zero_matrix():
    d, reps = case("A1", 1)
    zero = ConnMatrix(reps, ("q",), len(reps), {})
    assert matrix_relation(zero, {(1, 0): 1})
    assert not matrix_relation(zero, {(0, 0): 1})


# -------------------------------------------------------------- equivariant

def test_mihalcea_p1():
    d, reps = case("A1", 1)
    m = mihalcea_equivariant(d, fw_matrix(d, reps, 1))
    V = ("q", "h1")
    h = LaurentPoly.var(V, "h1")
    q = LaurentPoly.var(V, "q")
    one = LaurentPoly.const(V, 1)
    half = Fraction(1, 2)
    assert m.entries == (
        (h * -half, q),
        (one, h * half),
    )
    # the matrix is the normalized product: adding the global scalar
    # <varpi-vee, h> = h1/2 back to the diagonal recovers the plain
    # product form sigma * sigma = q.1 + 2h.sigma
    shifted = [
        [m.entries[r][c] + (h * half if r == c else LaurentPoly(V))
         for c in range(2)]
        for r in range(2)
    ]
    assert shifted[0][1] == q and shifted[1][1] == h


def test_mihalcea_specializes_to_quantum():
    for ct, node in [("A2", 1), ("A3", 2), ("B3", 3), ("D4", 1)]:
        d, reps = case(ct, node)
        mq = quantum_chevalley_minuscule(d, reps, node)
        me = mihalcea_equivariant(d, mq)
        hzero = {v: Fraction(0) for v in me.variables if v != "q"}
        for r in range(me.size):
            for c in range(me.size):
                e = me.entry(r, c)
                qpart = {}
                for exps, coeff in e.items():
                    if all(x == 0 for x in exps[1:]):
                        qpart[(exps[0],)] = coeff
                    else:
                        assert r == c  # h only on the diagonal
                assert qpart == mq.entry(r, c)
        del hzero


@pytest.mark.parametrize("ct,node", [("A3", 2), ("B3", 3), ("C4", 1),
                                     ("D5", 5), ("E6", 1)])
def test_lift_equivariant_adds_only_diagonal_terms(ct, node):
    # every off-diagonal entry is the original re-keyed with zero h
    # exponents; the diagonal adds -diagonal[c] on h_j
    d, reps = case(ct, node)
    m = fw_matrix(d, reps, node)
    rank = d.rank
    diagonal = [tuple(Fraction(c + 1, j + 2) * (-1) ** j for j in range(rank))
                for c in range(len(reps))]
    lifted = lift_equivariant(m, diagonal, 1)
    V = lifted.variables
    assert V == ("q",) + tuple(f"h{j}" for j in range(1, rank + 1))
    pad = (0,) * rank
    for r in range(m.size):
        for c in range(m.size):
            rekeyed = {k + pad: v for k, v in m.entry(r, c).items()}
            if r != c:
                assert lifted.entry(r, c) == rekeyed, (r, c)
            else:
                want = LaurentPoly(V, rekeyed)
                for j, coeff in enumerate(diagonal[c]):
                    want = want - LaurentPoly.var(V, f"h{j + 1}",
                                                  coeff=coeff)
                assert lifted.entry(r, c) == want.terms, c
    _assert_cells(lifted)
    _assert_cells(mihalcea_equivariant(d, m))


def test_mihalcea_trace_zero():
    for ct, node in [("A3", 2), ("B3", 3), ("C3", 1), ("D4", 1)]:
        d, reps = case(ct, node)
        m = mihalcea_equivariant(d, fw_matrix(d, reps, node))
        tr = LaurentPoly(m.variables)
        for i in range(m.size):
            tr = tr + LaurentPoly(m.variables, m.entry(i, i))
        assert tr.is_zero()


# ------------------------------------------------------- shared invariants

@pytest.mark.parametrize("ct,node", [
    ("A3", 1), ("A3", 2), ("B3", 3), ("C3", 1), ("D4", 1), ("D4", 4),
])
def test_homogeneity(ct, node):
    d, reps = case(ct, node)
    m = quantum_chevalley_minuscule(d, reps, node)
    assert check_homogeneous(m)
    assert check_homogeneous(mihalcea_equivariant(d, m))


def test_homogeneity_odd_quadric():
    d = D("B3")
    reps = minuscule_coset_reps(d, 1)
    assert check_homogeneous(fw_matrix(d, reps, 1))


@pytest.mark.parametrize("ct,node", [("A3", 2), ("B3", 3), ("D4", 1)])
def test_poincare_self_adjoint(ct, node):
    d, reps = case(ct, node)
    m = quantum_chevalley_minuscule(d, reps, node)
    assert poincare_self_adjoint(m, pd(d, reps))


def test_poincare_self_adjoint_fails_on_one_cell():
    # one cell added or one removed, each away from its own Poincare
    # mirror, breaks self-adjointness: the check must see a cell whose
    # mirror is absent, whichever side holds it
    d, reps = case("A3", 2)
    m = quantum_chevalley_minuscule(d, reps, 2)
    dual = pd(d, reps)
    assert poincare_self_adjoint(m, dual)

    def unpaired(r, c):
        return (dual[c], dual[r]) != (r, c)

    gone = next(rc for rc in sorted(m.cells) if unpaired(*rc))
    removed = {rc: e for rc, e in m.cells.items() if rc != gone}
    assert not poincare_self_adjoint(
        ConnMatrix(m.basis, m.variables, m.size, removed), dual)
    new = next((r, c) for r in range(m.size) for c in range(m.size)
               if (r, c) not in m.cells and unpaired(r, c))
    added = dict(m.cells)
    added[new] = {(0,): 1}
    assert not poincare_self_adjoint(
        ConnMatrix(m.basis, m.variables, m.size, added), dual)
