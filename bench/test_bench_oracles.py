"""The benchmark's oracles accept correct analyses and reject corrupted ones.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402
from modrep import analyze_algebra, builtin, field_make  # noqa: E402
from modrep.goldens import CheckResult  # noqa: E402

# (builtin, generators, degree, p, k, Brauer degrees)
TINY = {
    "V4/GF(2)": ("V4", ("(1,2)(3,4)", "(1,3)(2,4)"), 4, 2, 1, (1,)),
    "S3/GF(3)": ("S3", ("(1,2,3)", "(1,2)"), 3, 3, 1, (1, 1)),
    "S3/GF(2)": ("S3", ("(1,2,3)", "(1,2)"), 3, 2, 1, (1, 2)),
}


def _facts(label):
    name, gens, degree, p, k, _ = TINY[label]
    gfacts = oracles.group_facts(gens, degree)
    an = analyze_algebra(builtin(name), field_make(p, k), seed=0)
    return oracles.analysis_facts(an, gfacts), gfacts


def _problems(label, af, gfacts):
    return oracles.check_analysis(af, gfacts, TINY[label][5])


def test_class_enumeration():
    s3 = oracles.group_facts(("(1,2,3)", "(1,2)"), 3)
    assert sorted(len(c) for c in s3.classes) == [1, 2, 3]
    a5 = oracles.group_facts(workloads.A5_GENERATORS, 5)
    assert a5.order == 60
    assert sorted(len(c) for c in a5.classes) == [1, 12, 12, 15, 20]
    assert len(a5.p_regular_classes(2)) == 4 and len(a5.p_regular_classes(5)) == 3


@pytest.mark.parametrize("workload", ["char2-pims", "oddchar-center"])
def test_brauer_products_of_benchmark_inputs(workload):
    want = {"A5/GF(4)": 4, "S5/GF(2)": 16, "A5/GF(5)": 5, "A5/GF(9)": 3}
    for spec in workloads.WORKLOADS[workload]:
        facts = oracles.group_facts(spec.generators, spec.degree)
        assert oracles.brauer_det(facts, spec.char) == want[spec.label]
        assert len(facts.p_regular_classes(spec.char)) == len(spec.brauer_degrees)


def test_int_det():
    assert oracles.int_det([[4, 2, 2, 0], [2, 2, 1, 0], [2, 1, 2, 0], [0, 0, 0, 1]]) == 4
    assert oracles.int_det([[0, 1], [1, 0]]) == -1
    assert oracles.int_det([[1, 2], [2, 4]]) == 0


def test_field_sum_is_digitwise():
    # GF(9) encodings: 4 = 1 + x, 8 = 2 + 2x, sum 0; 5 = 2 + x, 5 + 5 = 1 + 2x = 7
    got = oracles.field_sum([[[4, 5]], [[8, 5]]], 3, 2)
    assert got.tolist() == [[0, 7]]


@pytest.mark.parametrize("label", sorted(TINY))
def test_accepts_correct_analysis(label):
    af, gfacts = _facts(label)
    assert _problems(label, af, gfacts) == []


def test_rejects_merged_block():
    af, gfacts = _facts("S3/GF(2)")
    assert len(af.report["blocks"]["parts"]) == 2
    bad = copy.deepcopy(af)
    bad.report["blocks"]["parts"] = [sorted(sum(bad.report["blocks"]["parts"], []))]
    assert any(p.startswith("blocks ") for p in _problems("S3/GF(2)", bad, gfacts))


def test_rejects_dropped_simple():
    af, gfacts = _facts("S3/GF(3)")
    bad = copy.deepcopy(af)
    del bad.report["simples"][1]
    del bad.simple_mats[1]
    problems = _problems("S3/GF(3)", bad, gfacts)
    assert any(p.startswith("simple count") for p in problems)


@pytest.mark.parametrize("entry,expect", [((0, 0), "det C"), ((0, 1), "cartan matrix not symmetric")])
def test_rejects_cartan_off_by_one(entry, expect):
    af, gfacts = _facts("S3/GF(3)")
    bad = copy.deepcopy(af)
    i, j = entry
    bad.report["cartan"][i][j] += 1
    assert any(p.startswith(expect) for p in _problems("S3/GF(3)", bad, gfacts))


def test_rejects_failed_suite_check():
    assert oracles.check_suite_result(CheckResult("x", True)) == []
    assert oracles.check_suite_result(CheckResult("x", False, "why")) == ["x: why"]


def test_tracer_wraps_every_namespace_and_restores():
    import modrep.modalg
    import modrep.structure

    original = modrep.structure.chop
    plain = analyze_algebra(builtin("S3"), field_make(3, 1), seed=0).report.to_json()
    counts = []
    for _ in range(2):
        tracer = spantrace.Tracer()
        tracer.install()
        try:
            assert modrep.structure.chop is modrep.modalg.chop is not original
            traced = analyze_algebra(builtin("S3"), field_make(3, 1), seed=0).report.to_json()
        finally:
            tracer.uninstall()
        assert traced == plain
        metrics = tracer.metrics(tracer.mark())
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
        parents = {
            tracer.names[tracer.name_id[tracer.parent[i]]]
            for i in range(len(tracer.name_id))
            if tracer.names[tracer.name_id[i]] == "modalg.chop"
        }
        assert "structure.find_simples" in parents  # called through structure's namespace
    assert counts[0] == counts[1]
    assert modrep.structure.chop is original


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        spantrace.metric_name(s, stat) for s, stat in spantrace.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == [
        spantrace.metric_unit(stat) for _, stat in spantrace.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
