"""Shared immutable contexts are safe to use from several threads."""

import json
import sys
from concurrent.futures import ThreadPoolExecutor

from modrep.fieldcore import field_make
from modrep.modalg import GroupAlgebra, chop, regular_module
from modrep.permgroup import builtin
from modrep.report import analyze_algebra
from modrep.structure import find_simples


def test_parallel_analyses_match_serial():
    gf4 = field_make(2, 2)
    a4 = builtin("A4")
    serial = analyze_algebra(a4, gf4, seed=2).report.to_json()

    def run(_):
        return analyze_algebra(a4, gf4, seed=2).report.to_json()

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(run, range(4)))
    assert all(r == serial for r in results)
    # still a valid report
    obj = json.loads(serial)
    assert obj["cartan"] == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]


def test_shared_regular_module_across_threads():
    # every thread chops the one regular module, which caches nothing: the
    # threads only read it
    a = GroupAlgebra(builtin("A4"), field_make(2, 2))
    reg = regular_module(a)
    state = dict(vars(reg))

    def run(seed):
        assert sum(f.dim for f in chop(reg, seed)) == reg.dim
        return [m.dim for m in find_simples(a, seed).simples]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(run, seed) for seed in range(12)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert results == [[1, 1, 1]] * 12
    assert vars(reg).keys() == state.keys()
    assert all(vars(reg)[name] is value for name, value in state.items())
    assert not reg._mats
