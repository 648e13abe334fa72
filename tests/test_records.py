"""The library's records are named tuples: value records compare and hash
field by field, the root datum and the coset table only by identity, and
importing the command line pulls in no dataclasses machinery."""

import importlib
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import mmirror
from mmirror.period_gw import PeriodSeries, RatFunc
from mmirror.qchev import ConnMatrix, fw_matrix
from mmirror.rootsys import CartanType, build_root_datum
from mmirror.weyl import CosetReps, minuscule_coset_reps


def test_no_module_defines_a_dataclass():
    for info in pkgutil.iter_modules(mmirror.__path__, "mmirror."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if isinstance(obj, type):
                assert not hasattr(obj, "__dataclass_fields__"), name


def test_cli_import_leaves_dataclasses_unloaded():
    # -S keeps site hooks (.pth files) from importing anything first
    src = str(Path(mmirror.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys; sys.path.insert(0, {src!r}); import mmirror.cli; "
         "print('dataclasses' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_datum_and_coset_table_equal_only_themselves():
    ct = CartanType("B", 3)
    d1, d2 = build_root_datum(ct), build_root_datum(ct)
    r1, r2 = minuscule_coset_reps(d1, 3), minuscule_coset_reps(d1, 3)
    for a, b in ((d1, d2), (r1, r2)):
        assert a == a and not a != a
        assert a != b and not a == b
        assert hash(a) == hash(a)
        assert len({a, b}) == 2


def test_coset_table_replace_and_make_keep_its_fields():
    # len counts the cosets (6 on A3 n2), not the table's 9 fields
    reps = minuscule_coset_reps(build_root_datum(CartanType("A", 3)), 2)
    quadric = reps._replace(heights=None)
    assert type(quadric) is CosetReps and len(quadric) == len(reps) == 6
    assert quadric.heights is None and quadric.weights is reps.weights
    again = CosetReps._make(reps._asdict().values())
    assert again != reps and len(again) == 6
    assert all(x is y for x, y in zip(again, reps))
    with pytest.raises(TypeError, match="Expected 9 arguments, got 6"):
        CosetReps._make(reps.weights)
    # namedtuple's _replace raises TypeError from Python 3.13 on
    unexpected = TypeError if sys.version_info >= (3, 13) else ValueError
    with pytest.raises(unexpected, match="unexpected field names"):
        reps._replace(cosets=6)


def test_conn_matrices_with_equal_cells_are_equal():
    d = build_root_datum(CartanType("C", 3))
    M1 = fw_matrix(d, minuscule_coset_reps(d, 1), 1)
    M2 = fw_matrix(d, minuscule_coset_reps(d, 1), 1)
    assert M1.basis is not M2.basis
    assert M1 == M2 and not M1 != M2
    cells = dict(M2.cells)
    del cells[next(iter(cells))]
    M3 = ConnMatrix(M2.basis, M2.variables, M2.size, cells)
    assert M1 != M3 and not M1 == M3


def test_value_records_compare_and_hash_by_fields():
    ct = CartanType("D", 4)
    r1 = build_root_datum(ct).highest_root
    r2 = build_root_datum(ct).highest_root
    assert r1 is not r2 and r1 == r2
    assert hash(r1) == hash(r2) == hash(
        (r1.coeffs, r1.height, r1.fw, r1.coroot, r1.norm2))
    assert repr(r1) == "Root(1, 2, 1, 1)"
    assert ct == CartanType("D", 4) != CartanType("D", 5)
    assert hash(ct) == hash(("D", 4))
    f = RatFunc.make((2, 4), (2,))
    assert f == RatFunc.make((1, 2)) == RatFunc((Fraction(1), Fraction(2)),
                                               (Fraction(1),))
    assert hash(f) == hash((f.num, f.den))
    assert RatFunc.make((1,)) != RatFunc.make((1,), (1, 1))
    s = PeriodSeries((Fraction(1), Fraction(0), Fraction(2)))
    assert s.trace is None and s == PeriodSeries(s.coefficients, None)
    assert hash(s) == hash((s.coefficients, None))
    assert s != PeriodSeries(s.coefficients, ())
    assert s.upto(1) == PeriodSeries(s.coefficients[:2])


def test_cartan_type_refuses_unsupported():
    with pytest.raises(ValueError, match=r"^unsupported Cartan type D3$"):
        CartanType("D", 3)


def test_cartan_types_sort_by_family_then_rank():
    types = [CartanType(f, n) for f, n in
             (("E", 6), ("A", 10), ("D", 4), ("A", 2), ("B", 3), ("E", 7))]
    assert [str(t) for t in sorted(types)] == [
        "A2", "A10", "B3", "D4", "E6", "E7"]
