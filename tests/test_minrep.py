from fractions import Fraction

import pytest

from mmirror.rootsys import (
    CartanType,
    build_root_datum,
    minuscule_nodes,
)
from mmirror.qchev import (
    ConnMatrix,
    fw_matrix,
    lift_equivariant,
    mihalcea_diagonal,
    mihalcea_equivariant,
    quantum_chevalley_minuscule,
)
from mmirror import minrep
from mmirror.minrep import (
    coweight_diagonal,
    fg_connection,
)
from mmirror.weyl import (
    minuscule_coset_reps,
    w_gamma_set,
)
from reference import (
    LaurentPoly,
    act_coweight,
    fundamental_coweight,
    generator_matrices,
    index_of,
    parabolic_cases,
    multiply,
    pi_P,
    pinned_minuscule_cases,
    reflection,
    rep_elements,
    simple_reflection,
    space_dim,
    xtheta_matrix,
    zeta_rescaling_consistent,
)


def R(ct, node):
    """The datum and the coset table, the representation's basis."""
    d = build_root_datum(CartanType.parse(ct))
    return d, minuscule_coset_reps(d, node)


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_sub(a, b):
    return tuple(
        tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_scale(a, s):
    return tuple(tuple(x * s for x in row) for row in a)


# ---------------------------------------------------------------- basics

def test_rejects_non_minuscule_node():
    d = build_root_datum(CartanType("B", 3))
    with pytest.raises(ValueError, match="node 1 is not minuscule"):
        fg_connection(d, minuscule_coset_reps(d, 1))


def test_rejects_weight_pairing_outside_minuscule_range(monkeypatch):
    # admitted as minuscule, the quadric B3 node 1 still fails the
    # weight test: the weight varpi_1 - alpha_1 = (-1, 1, 0) of its orbit
    # moves on to (0, -1, 2), whose coordinate 2 pairs with alpha_3-vee
    # outside {-1, 0, 1}
    d = build_root_datum(CartanType("B", 3))
    reps = minuscule_coset_reps(d, 1)
    assert any(2 in mu for mu in reps.weights)
    monkeypatch.setattr(minrep, "minuscule_nodes", lambda ct: (1, 3))
    with pytest.raises(AssertionError,
                       match=r"weight pairing outside \{-1,0,1\}"):
        fg_connection(d, reps)


def test_a1_fundamental():
    g = generator_matrices(*R("A1", 1))
    assert g["x1"].matrix == ((0, 1), (0, 0))
    assert g["y1"].matrix == ((0, 0), (1, 0))
    assert g["h"].matrix == ((1, 0), (0, -1))
    assert g["e"].matrix == ((0, 1), (0, 0))


def test_weights_move_by_simple_roots():
    d, reps = R("A3", 2)
    g = generator_matrices(d, reps)
    elts = rep_elements(d, reps)
    for j in (1, 2, 3):
        for r, c, v in g[f"x{j}"].nonzeros():
            assert v == 1
            # target basis vector is s_j w as a Weyl element, inside W^P
            target = multiply(d, simple_reflection(d, j), elts[c])
            assert index_of(d, reps, target) == r


def test_h_eigenvalues():
    for ct, node in [("A3", 2), ("B3", 3), ("C3", 1), ("D4", 1)]:
        d, reps = R(ct, node)
        g = generator_matrices(d, reps)
        dim = space_dim(reps)
        for i, ell in enumerate(reps.lengths):
            assert g["h"].matrix[i][i] == dim - 2 * ell


@pytest.mark.parametrize("ct,node", [
    ("A1", 1), ("A3", 1), ("A3", 2), ("B3", 3), ("C3", 1),
    ("D4", 1), ("D4", 4), ("B4", 4), ("C4", 1), ("D5", 5),
])
def test_sl2_relations(ct, node):
    g = generator_matrices(*R(ct, node))
    e, f, h = g["e"].matrix, g["f"].matrix, g["h"].matrix
    assert mat_sub(mat_mul(e, f), mat_mul(f, e)) == h
    assert mat_sub(mat_mul(h, e), mat_mul(e, h)) == mat_scale(e, 2)
    assert mat_sub(mat_mul(h, f), mat_mul(f, h)) == mat_scale(f, -2)


def test_f_equals_hasse_diagram():
    for ct, node in [("A3", 2), ("B3", 3), ("D4", 1)]:
        d, reps = R(ct, node)
        g = generator_matrices(d, reps)
        m = fw_matrix(d, reps, node)
        for r in range(len(reps)):
            for c in range(len(reps)):
                assert g["f"].matrix[r][c] == m.entry(r, c).get((0,), 0)


# ----------------------------------------------------------------- x_theta

def test_xtheta_rank_one_projective():
    xt = xtheta_matrix(*R("C3", 1))
    assert xt.nonzeros() == [(0, 5, 1)]  # lowest rep to highest weight line


def test_xtheta_counts():
    assert len(xtheta_matrix(*R("D4", 1)).nonzeros()) == 2
    assert len(xtheta_matrix(*R("E6", 6)).nonzeros()) == 6
    assert len(xtheta_matrix(*R("B3", 3)).nonzeros()) == 2


def test_xtheta_squares_to_zero():
    for ct, node in [("A3", 2), ("B3", 3), ("C3", 1), ("D4", 1), ("E6", 1)]:
        xt = xtheta_matrix(*R(ct, node)).matrix
        n = len(xt)
        sq = mat_mul(xt, xt)
        assert sq == tuple(tuple(0 for _ in range(n)) for _ in range(n))


def test_xtheta_support_is_w_gamma_route():
    # the weight rule mu -> mu + theta agrees with the Weyl-group route
    # v_w -> v_{pi_P(w s_gamma)} on W(gamma)
    for ct, node in [("A4", 2), ("B4", 4), ("C3", 1), ("D5", 5), ("E6", 1)]:
        d, reps = R(ct, node)
        p = reps.parabolic
        sgamma = reflection(d, p.gamma)
        elts = rep_elements(d, reps)
        want = sorted(
            (index_of(d, reps, pi_P(d, p.I_P, multiply(d, elts[c], sgamma))),
             c, 1)
            for c in w_gamma_set(d, reps)
        )
        assert sorted(xtheta_matrix(d, reps).nonzeros()) == want, (ct, node)


def test_equivariant_diagonal_is_moved_coweight():
    # the weight-only diagonal equals -<w . varpi-vee, h> from the Weyl
    # action on coweights, in every family including B and C
    for ct, node in [("A3", 2), ("B3", 3), ("C4", 1), ("D4", 1), ("E6", 6)]:
        d, reps = R(ct, node)
        scale, rows = coweight_diagonal(d, reps)
        F = lift_equivariant(fg_connection(d, reps), rows, scale)
        covec = fundamental_coweight(d, node)
        for c, w in enumerate(rep_elements(d, reps)):
            moved = act_coweight(w, covec)
            for j in range(d.rank):
                h_j = tuple(int(i == j + 1) for i in range(d.rank + 1))
                assert F.entry(c, c).get(h_j, 0) == -moved[j], \
                    (ct, node, c, j)


def minuscule_cases(max_rank=7):
    """Every minuscule (type, node) up to max_rank, plus E6 and E7."""
    out = []
    for family, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4)):
        for n in range(low, max_rank + 1):
            ct = CartanType(family, n)
            out.extend((str(ct), node) for node in minuscule_nodes(ct))
    return out + [("E6", 1), ("E6", 6), ("E7", 7)]


def fraction_inverse_cartan(d):
    """A^-1 by Gauss-Jordan over Fractions."""
    n = d.rank
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(d.cartan)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def test_integer_coweights_equal_fraction_formulas():
    # mihalcea_diagonal (Chevalley side) and coweight_diagonal (rep side)
    # give integer rows over one denominator; over it both equal the
    # Fraction formulas on every rep of every minuscule case up to rank 7
    # and E7, and the Chevalley side equals the Fraction act_coweight
    for ct, node in minuscule_cases():
        d, reps = R(ct, node)
        n = d.rank
        inv = fraction_inverse_cartan(d)
        cov = tuple(inv[k][node - 1] for k in range(n))
        assert fundamental_coweight(d, node) == cov, (ct, node)
        one, half = Fraction(1), Fraction(1, 2)
        dsym = {"B": [one] * (n - 1) + [half],
                "C": [half] * (n - 1) + [one]}.get(d.cartan_type.family,
                                                  [one] * n)
        scale, diagonal = coweight_diagonal(d, reps)
        den, moved_rows = mihalcea_diagonal(d, reps)
        assert isinstance(scale, int) and isinstance(den, int)
        for w, mu, got, moved in zip(rep_elements(d, reps),
                                     reps.weights, diagonal, moved_rows):
            assert all(isinstance(x, int) for x in got + moved)
            want = tuple(
                dsym[k] / dsym[node - 1]
                * sum(mu[j] * inv[j][k] for j in range(n))
                for k in range(n))
            assert tuple(Fraction(x, scale) for x in got) == want, \
                (ct, node, mu)
            moved = tuple(Fraction(x, den) for x in moved)
            assert moved == tuple(
                sum(w.inv_action[j][k] * cov[j] for j in range(n))
                for k in range(n)), (ct, node, w)
            assert moved == act_coweight(w, cov), (ct, node, w)


@pytest.mark.parametrize("ct,node", parabolic_cases())
def test_integer_diagonals_equal_act_coweight(ct, node):
    # over its denominator each integer row is the Fraction w . varpi-vee,
    # for the coweights the coset walk carries and on the Chevalley side
    # at every node, and on the rep side where the node is minuscule
    d = build_root_datum(CartanType.parse(ct))
    reps = minuscule_coset_reps(d, node)
    covec = fundamental_coweight(d, node)
    want = [act_coweight(w, covec) for w in rep_elements(d, reps)]
    sides = [(d.inverse_cartan[0], reps.coweights),
             mihalcea_diagonal(d, reps)]
    if node in minuscule_nodes(d.cartan_type):
        sides.append(coweight_diagonal(d, reps))
    for den, rows in sides:
        assert [tuple(Fraction(x, den) for x in row) for row in rows] \
            == want, (ct, node)


def test_xtheta_entries_binary():
    for ct, node in [("A4", 2), ("B3", 3), ("D4", 3)]:
        for _, _, v in xtheta_matrix(*R(ct, node)).nonzeros():
            assert v == 1


# --------------------------------------------------------- mirror identity

def test_fg_p1():
    m = fg_connection(*R("A1", 1))
    q = LaurentPoly.var(("q",), "q")
    one = LaurentPoly.const(("q",), 1)
    zero = LaurentPoly(("q",))
    assert m.entries == ((zero, q), (one, zero))


@pytest.mark.parametrize("ct,node", [
    ("A2", 1), ("A3", 2), ("A4", 2), ("B3", 3), ("C3", 1),
    ("D4", 1), ("D4", 3), ("D4", 4), ("B4", 4), ("C4", 1),
])
def test_mirror_identity_small(ct, node):
    d, reps = R(ct, node)
    assert fg_connection(d, reps) == quantum_chevalley_minuscule(
        d, reps, node
    )


def dense_fg(d, reps):
    """f + q x_theta summed cell by cell from the dense operator matrices."""
    ys = [m.matrix for name, m in generator_matrices(d, reps).items()
          if name.startswith("y")]
    xt = xtheta_matrix(d, reps).matrix
    n = len(reps)
    cells = {}
    for r in range(n):
        for c in range(n):
            terms = {e: v for e, v in (((0,), sum(y[r][c] for y in ys)),
                                       ((1,), xt[r][c])) if v}
            if terms:
                cells[r, c] = terms
    return ConnMatrix(reps, ("q",), n, cells)


@pytest.mark.parametrize("ct,node", pinned_minuscule_cases())
def test_fg_connection_equals_dense_reference(ct, node):
    # the Cartan-row steps and the x_theta walk build only the reached
    # cells: they are the nonzero cells of the dense sum of root_step
    # operators, and every coefficient is a nonzero int
    d, reps = R(ct, node)
    m = fg_connection(d, reps)
    assert m == dense_fg(d, reps)
    for e in m.cells.values():
        assert e and all(type(v) is int and v != 0 for v in e.values())
    # at most one f step per simple root and one x_theta step per column
    assert (sum(len(e) for e in m.cells.values())
            <= len(reps) * (d.rank + 1))


def test_spinor_coincidence_b3_d4():
    # OG(3,7) and OG(4,8) are the same variety; the two connection
    # matrices agree index-by-index under the shared basis ordering
    mb = fg_connection(*R("B3", 3))
    md = fg_connection(*R("D4", 4))
    assert mb.entries == md.entries


# -------------------------------------------------------------- equivariant

def test_equivariant_fg_p1():
    d, reps = R("A1", 1)
    scale, rows = coweight_diagonal(d, reps)
    m = lift_equivariant(fg_connection(d, reps), rows, scale)
    V = ("q", "h1")
    q = LaurentPoly.var(V, "q")
    h = LaurentPoly.var(V, "h1")
    one = LaurentPoly.const(V, 1)
    assert m.entries == (
        (h * Fraction(-1, 2), q),
        (one, h * Fraction(1, 2)),
    )


@pytest.mark.parametrize("ct,node", [
    ("A1", 1), ("A3", 2), ("A4", 2), ("B3", 3), ("D4", 1),
])
def test_equivariant_mirror_identity(ct, node):
    d, reps = R(ct, node)
    scale, rows = coweight_diagonal(d, reps)
    assert lift_equivariant(fg_connection(d, reps), rows, scale) \
        == mihalcea_equivariant(d, fw_matrix(d, reps, node))


def test_equivariant_fg_reduces_at_h_zero():
    d, reps = R("A3", 2)
    scale, rows = coweight_diagonal(d, reps)
    mq = fg_connection(d, reps)
    me = lift_equivariant(mq, rows, scale)
    for r in range(me.size):
        for c in range(me.size):
            qonly = {
                (k[0],): v
                for k, v in me.entry(r, c).items()
                if all(x == 0 for x in k[1:])
            }
            assert qonly == mq.entry(r, c)


# ------------------------------------------------------------------ grading

@pytest.mark.parametrize("ct,node", [("A3", 2), ("B3", 3), ("D4", 1)])
def test_zeta_rescaling(ct, node):
    d, reps = R(ct, node)
    assert zeta_rescaling_consistent(d, reps, fg_connection(d, reps))
