import hashlib
import json
import time

import pytest

from modrep import cli, goldens
from modrep.fieldcore import field_make
from modrep.goldens import CheckResult, Workbench, check_ka4
from modrep.permgroup import builtin
from modrep.report import SCHEMA, analyze_algebra


def run_cli(args):
    return cli.main(args)


def test_analyze_a4_json(tmp_path, capsys):
    out = tmp_path / "a4.json"
    code = run_cli(
        ["analyze", "--builtin", "A4", "--char", "2", "--degree", "2", "--seed", "7",
         "--out", str(out), "--format", "json"]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["schema"] == SCHEMA
    assert report["cartan"] == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
    assert len(report["blocks"]["parts"]) == 1
    assert report["input"]["seed"] == 7
    assert all(c["status"] == "pass" for c in report["certificates"])
    assert "timings" not in report


def test_analyze_c5_uniserial(tmp_path):
    out = tmp_path / "c5.json"
    code = run_cli(
        ["analyze", "--builtin", "C5", "--char", "5", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [s["dim"] for s in report["simples"]] == [1]
    layers = report["pims"][0]["loewy_layers"]
    assert len(layers) == 5
    assert all(layer == [{"simple": "S1", "mult": 1}] for layer in layers)


def test_analyze_trivial_group(tmp_path):
    spec = tmp_path / "trivial.json"
    spec.write_text('{"degree": 1, "generators": []}', encoding="utf-8")
    out = tmp_path / "report.json"
    code = run_cli(
        ["analyze", "--group-file", str(spec), "--char", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert [s["dim"] for s in report["simples"]] == [1]
    assert report["cartan"] == [[1]]
    assert len(report["blocks"]["parts"]) == 1


def test_json_byte_identical_across_runs(tmp_path):
    outs = []
    for i in range(2):
        out = tmp_path / f"run{i}.json"
        code = run_cli(
            ["analyze", "--builtin", "A5", "--char", "2", "--degree", "2",
             "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_label_map_renames(tmp_path):
    out = tmp_path / "a4.txt"
    code = run_cli(
        ["analyze", "--builtin", "A4", "--char", "2", "--degree", "2",
         "--label-map", "S1=T1,S2=T2,S3=T3", "--format", "text", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "T1" in text and "S1 " not in text


def test_analyze_stdout_text(capsys):
    code = run_cli(["analyze", "--builtin", "V4", "--char", "2", "--format", "text"])
    assert code == 0
    captured = capsys.readouterr()
    assert "PIM P1 (dim 4" in captured.out
    assert "S1 | S1+S1 | S1" in captured.out


def test_input_errors_exit_1(tmp_path, capsys):
    assert run_cli(["analyze", "--builtin", "E8", "--char", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("modrep: error:") and "\n" not in err.strip()
    assert run_cli(["analyze", "--builtin", "A4", "--char", "4"]) == 1
    assert run_cli(["analyze", "--group-file", str(tmp_path / "nope.json"), "--char", "2"]) == 1
    assert (
        run_cli(["analyze", "--builtin", "A4", "--char", "2", "--degree", "2",
                 "--modulus", "1,0,1"])
        == 1
    )


@pytest.mark.parametrize(
    "spec",
    ["{}", "[1,2]", '{"degree": 3, "generators": [5]}', '{"degree": 3, "generators": "(1,2,3)"}'],
)
def test_malformed_group_spec_exit_1_one_line(tmp_path, capsys, spec):
    path = tmp_path / "g.json"
    path.write_text(spec, encoding="utf-8")
    assert run_cli(["analyze", "--group-file", str(path), "--char", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("modrep: error: InvalidGroupSpec:")
    assert len(err.splitlines()) == 1


def test_group_order_guard_exit_1_one_line(tmp_path, capsys):
    path = tmp_path / "s8.json"
    path.write_text('{"degree": 8, "generators": ["(1,2,3,4,5,6,7,8)", "(1,2)"]}',
                    encoding="utf-8")
    assert run_cli(["analyze", "--group-file", str(path), "--char", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("modrep: error: GroupTooLarge:")
    assert len(err.splitlines()) == 1


# sha256 of the seed-0 JSON report; any change to the report bytes shows here
PINNED_REPORTS = [
    ("A4", 2, 2, "7cf1f1df498673bb008c1be6427bd948e1f4bafaf3bf17236cca7ae160ee7e27"),
    ("A5", 2, 2, "ff4a7d7c78b1a2e5ea92400eb48f8f3d9e61ce6aaa33a90344dbf227f10bed33"),
    ("S3", 3, 1, "c2d2a91a9c4aafe30c75623aa5789ec3dd61273bf9566222d741d83fbee1281f"),
    ("A5", 5, 1, "95daff7bf36f5e938fe12e98d62dd7c25323f1528ff55188578d56283bfee21d"),
    ("A5", 3, 2, "9ab49d152fe1559d96cbed0ce30b7fb0d09e2fbe8a8d2ab642577e07f1cd5b30"),
    ("S4", 3, 1, "2f1ce1021937556af01051798cbfec626b44e31ef418a77d1f999ca78fec10ec"),
]


# seed 1 drives a different chop than seed 0; a classification step that drew
# from the chop's generator would change these bytes
PINNED_REPORTS_SEED1 = [
    ("A5", 2, 2, "1c227733d821f2c2798f7de9450519a6bb16b6c0728b2f6b47c9d0467cc4f43c"),
    ("A5", 3, 2, "82b373404bb468d0021e2f803e97875fb51672be5155ab775f283db0c67157e9"),
    ("S4", 3, 1, "7882addac23bc197cb3c540d69ac2c73544a90af4438d87ddd6dd98121ca935f"),
]


@pytest.mark.parametrize("name, p, d, digest", PINNED_REPORTS)
def test_report_bytes_pinned(name, p, d, digest):
    an = analyze_algebra(builtin(name), field_make(p, d), seed=0, group_spec={"builtin": name})
    assert hashlib.sha256(an.report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("name, p, d, digest", PINNED_REPORTS_SEED1)
def test_report_bytes_pinned_seed1(name, p, d, digest):
    an = analyze_algebra(builtin(name), field_make(p, d), seed=1, group_spec={"builtin": name})
    assert hashlib.sha256(an.report.to_json().encode()).hexdigest() == digest


def test_nonsplit_field_exit_2_report_written(tmp_path):
    out = tmp_path / "a4gf2.json"
    code = run_cli(
        ["analyze", "--builtin", "A4", "--char", "2", "--out", str(out)]
    )
    assert code == 2
    report = json.loads(out.read_text(encoding="utf-8"))
    statuses = {c["name"]: c["status"] for c in report["certificates"]}
    assert statuses["field_splits"] == "fail"
    assert report["cartan"] is None


def test_check_paper_exit_0(capsys):
    assert run_cli(["check", "--suite", "paper", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "ka5.cartan" in out and "FAIL" not in out


def test_check_properties_seed_isolation(capsys):
    passed_sets = []
    for seed in ["1", "2", "3"]:
        assert run_cli(["check", "--suite", "properties", "--seed", seed]) == 0
        out = capsys.readouterr().out
        passed_sets.append({line.split()[1] for line in out.splitlines() if line.startswith("ok")})
    assert passed_sets[0] == passed_sets[1] == passed_sets[2]


def test_mutated_cartan_fails_named_check():
    # harness sensitivity: a transposed-and-perturbed Cartan matrix must
    # fail the ka4.cartan comparison by name
    wb = Workbench(0)
    an = wb.a4()
    good = [row[:] for row in an.cartan.entries]
    an.cartan.entries[0][1] += 1  # perturb
    try:
        results = {r.name: r for r in check_ka4(wb)}
    finally:
        an.cartan.entries = good
    assert not results["ka4.cartan"].passed


def test_cli_check_failure_exit_2(monkeypatch, capsys):
    monkeypatch.setattr(
        goldens, "run_paper_suite", lambda seed: [CheckResult("ka4.cartan", False, "mutated")]
    )
    assert run_cli(["check", "--suite", "paper"]) == 2
    out = capsys.readouterr().out
    assert "FAIL ka4.cartan" in out


def test_analysis_object_surface():
    an = analyze_algebra(builtin("A4"), field_make(2, 2), seed=0)
    assert an.report.all_passed
    certs = {c.name: c for c in an.report.certificates}
    assert certs["cartan_methods_agree"].passed
    assert an.block_dims == [12]
    text = an.report.to_text()
    assert "timings:" in text


def test_timings_name_every_stage_and_sum_to_the_call():
    stages = ["find_simples", "jacobson_radical", "primitive_decomposition", "cartan",
              "pim_structure", "blocks", "assembly"]
    for field, keys in [(field_make(2, 2), stages),
                        (field_make(2, 1), ["find_simples", "jacobson_radical", "assembly"])]:
        t0 = time.perf_counter()
        an = analyze_algebra(builtin("A4"), field, seed=0)
        wall = time.perf_counter() - t0
        timings = an.report.timings
        assert list(timings) == keys
        assert all(v >= 0 for v in timings.values())
        assert sum(timings.values()) <= wall
        assert "timings" not in an.report.to_obj()
