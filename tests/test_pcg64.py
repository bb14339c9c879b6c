"""modrep's own integer stream against numpy's default_rng, and the import
graph it leaves: no modrep code path loads numpy.random."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import modrep
from modrep.fieldcore import field_make
from modrep.modalg import GroupAlgebra, Pcg64Ints, _rng, chop, regular_module
from modrep.permgroup import builtin

SEEDS = [*range(200), 2**32 + 5, 2**64 + 3, 2**130 + 7]
SPANS = [1, 2, 3, 60, 120, 4096, 10000, 2**31, 2**31 + 1, 2**32 - 1]  # 2^31 + 1 rejects half its draws


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_draws_what_default_rng_draws(seed):
    ours, ref = Pcg64Ints(seed), np.random.default_rng(seed)
    for i in range(60):
        span = SPANS[i % len(SPANS)]
        lo = i * 7
        assert ours.integers(lo, lo + span) == int(ref.integers(lo, lo + span)), (i, span)


@pytest.mark.parametrize("seed", [0, 99, 2**64 + 3])
@pytest.mark.parametrize("span", [2, 3, 60, 2**31, 2**31 + 1, 2**32 - 1])
def test_stream_matches_default_rng_arrays_in_row_order(seed, span):
    ours, ref = Pcg64Ints(seed), np.random.default_rng(seed)
    for n in range(1, 8):
        want = ref.integers(5, 5 + span, size=(3, n)).tolist()
        assert [[ours.integers(5, 5 + span) for _ in range(n)] for _ in range(3)] == want


def test_stream_refuses_what_it_does_not_reproduce():
    with pytest.raises(ValueError):
        Pcg64Ints(-1)
    ours = Pcg64Ints(0)
    for lo, hi in [(0, 2**32), (5, 5), (3, 2)]:
        with pytest.raises(ValueError):
            ours.integers(lo, hi)


def test_rng_passes_a_stream_through():
    gen = np.random.default_rng(4)
    assert _rng(gen) is gen
    ours = Pcg64Ints(4)
    assert _rng(ours) is ours
    assert isinstance(_rng(np.int64(4)), Pcg64Ints)


@pytest.mark.parametrize("group, field", [("A4", (2, 2)), ("A5", (2, 1))])
def test_chop_with_a_numpy_generator_matches_the_int_seed(group, field):
    reg = regular_module(GroupAlgebra(builtin(group), field_make(*field)))
    for s in range(3):
        ours, theirs = chop(reg, s), chop(reg, np.random.default_rng(s))
        assert [[g.a.tolist() for g in f.gen_action] for f in ours] == [
            [g.a.tolist() for g in f.gen_action] for f in theirs
        ]


# numpy.random is already loaded in this process, so a fresh interpreter runs the pipeline
GUARD = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from modrep import cli, field_make
from modrep.permgroup import builtin
from modrep.report import analyze_algebra
assert analyze_algebra(builtin("A4"), field_make(2, 2), 0).report.all_passed
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["analyze", "--builtin", "A4", "--char", "2", "--degree", "2"]) == 0
print("modrep.goldens" in sys.modules)
from modrep.goldens import run_paper_suite, run_property_suite
assert all(r.passed for r in run_paper_suite(0) + run_property_suite(0))
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_no_modrep_path_imports_numpy_random():
    src = str(Path(modrep.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", GUARD, src],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # `modrep analyze` leaves the suites unloaded; nothing loads numpy.random
    assert proc.stdout.split("\n")[-3:] == ["False", "[]", ""]
