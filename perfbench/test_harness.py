"""Tests of the benchmark's own arithmetic and tracing.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import random
import sys
import types
from pathlib import Path

import pytest

from run import (MIN_BEYOND, REFERENCE_S, REFERENCE_SHARE, Reference, beyond,
                 fail_ratio, percentile, reference_work)
from tracing import Span, Tracer, self_times
from workloads import (PINNED_CASES, PINNED_CHECKS, Mismatch, VerifyPinned,
                       draw_subset, expected_battery)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_percentile_is_nearest_rank():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert percentile(values, 50) == 5
    assert percentile(values, 80) == 8
    assert percentile(values, 100) == 10
    assert percentile(values, 0) == 1


def test_p80_keeps_ten_samples_beyond():
    assert MIN_BEYOND == 10
    assert beyond(58, 80) == 11               # a full pass: p80, not p90
    assert beyond(58, 90) == 5
    assert beyond(64, 80) == 12               # 2 passes of 32 cases
    assert beyond(49, 80) == 9                # too few: the run fails


def test_reference_runs_at_least_once_and_for_its_share():
    reference = Reference()
    reference.follow(0.0)
    assert reference.runs == 1 and reference.seconds > 0
    reference = Reference()
    reference.follow(0.2)
    assert reference.runs > 1
    assert reference.seconds >= REFERENCE_SHARE * 0.2 - reference.mean_s()
    assert reference.mean_s() == reference.seconds / reference.runs
    assert reference_work() == reference_work()


def test_reference_scale_is_nominal_over_measured_mean():
    reference = Reference()
    reference.runs, reference.seconds = 4, 8 * REFERENCE_S
    assert reference.mean_s() == 2 * REFERENCE_S
    assert reference.scale() == 0.5           # a host half as fast


def test_fail_ratio():
    assert fail_ratio(0, 58) == 0
    assert fail_ratio(1, 4) == 0.25
    with pytest.raises(ValueError):
        fail_ratio(0, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("case", 0.0, 10.0, None, "c"),
        Span("a", 1.0, 4.0, 0, "c"),
        Span("a.inner", 2.0, 3.0, 1, "c"),
        Span("b", 5.0, 9.0, 0, "c"),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0].end - spans[0].start


def test_tracer_rebinds_and_restores_layer_functions():
    def outer(x):
        return len(fake.inner(x)) + 1

    def inner(x):
        return list(range(x))

    outer.__module__ = "mmirror.period_gw"
    inner.__module__ = "mmirror.weyl"
    fake = types.ModuleType("mmirror.cli")
    fake.outer, fake.inner, fake.CartanType = outer, inner, type("C", (), {})
    fake.__file__ = "cli.py"

    tracer = Tracer()
    tracer.install(fake)
    assert fake.outer is not outer and fake.CartanType.__name__ == "C"
    with tracer.span("cli.case", "A1n1"):
        assert fake.outer(3) == 4
    tracer.uninstall(fake)
    assert fake.outer is outer and fake.inner is inner

    names = [s.name for s in tracer.spans]
    assert names == ["cli.case", "period_gw.outer", "weyl.inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    assert {s.case for s in tracer.spans} == {"A1n1"}
    totals = tracer.layer_totals()
    case = tracer.spans[0]
    own = sum(t["self_s"] for t in totals.values())
    assert own == pytest.approx(case.end - case.start)
    assert totals["weyl.inner"]["calls"] == 1


@pytest.fixture(scope="module")
def pinned_cases():
    sys.path.insert(0, str(SRC))
    from mmirror import cli
    text = (SRC / "mmirror" / "data" / "verify_cases.json").read_text()
    cases = []
    for entry in json.loads(text)["cases"]:
        datum = cli.build_root_datum(cli.CartanType.parse(entry["cartan"]))
        cases.append({"cartan": entry["cartan"], "node": entry["node"],
                      "dim": cli.levi_data(datum, entry["node"]).coset_size,
                      "battery": expected_battery(entry)})
    return cases


def test_battery_rule_reproduces_pinned_totals(pinned_cases):
    assert len(pinned_cases) == PINNED_CASES
    assert sum(len(c["battery"]) for c in pinned_cases) == PINNED_CHECKS


def test_subset_is_stratified_and_seed_drawn(pinned_cases):
    draws = [draw_subset(pinned_cases, random.Random(seed))
             for seed in range(8)]
    groups = [sorted((c["cartan"], c["dim"], c["battery"]) for c in d)
              for d in draws]
    assert all(g == groups[0] for g in groups)      # same work every seed
    assert len({tuple(sorted((c["cartan"], c["node"]) for c in d))
                for d in draws}) > 1                 # different twins
    for d in draws:
        picked = {(c["cartan"], c["node"]) for c in d}
        assert {("D4", 1), ("E6", 1), ("E6", 6), ("B2", 1)} <= picked
        assert max(c["dim"] for c in d) >= 56
        assert {c["cartan"][0] for c in d} == set("ABCDE")
        assert all(c["dim"] <= 35 for c in d if c["dim"] != 56)


def test_verify_check_fails_on_a_missing_or_reused_report(tmp_path):
    case = {"cartan": "A1", "node": 1, "dim": 2, "battery": ["mirror"]}
    workload = VerifyPinned(str(tmp_path))
    path = tmp_path / "A1n1.json"
    with pytest.raises(Mismatch):
        workload.check(None, case, (1, str(path)))
    report = {"cartan": "A1", "node": 1, "dim": 2, "pass": True,
              "checks": [{"name": "mirror", "pass": True, "detail": ""}]}
    path.write_text(json.dumps({"cases": [report], "pass": True}))
    workload.check(None, case, (0, str(path)))
    with pytest.raises(Mismatch):                # consumed by the first check
        workload.check(None, case, (0, str(path)))
