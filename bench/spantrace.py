"""Span tracing of modrep from outside the package.

``Tracer.install()`` replaces the public entry points of every ``modrep``
module, and the private kernels named in ``EXTRA_TARGETS``, with wrappers
that record one span per call: name, start, end and parent span.  A name is
replaced in every module namespace that holds it (``structure`` calls
``chop`` through ``from .modalg import chop``, so both ``modrep.modalg.chop``
and ``modrep.structure.chop`` are wrapped); methods are patched on the
class.  Spans stay in flat arrays in memory and are written out at the end.

Stdlib only.  The workloads run single-threaded, so one span stack serves.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

# (module, attribute) beyond the functions modrep exports in __all__
EXTRA_TARGETS = [
    ("structure", "_ideal_nilpotency_index"),
    ("structure", "cartan_both"),
    ("blocks", "_central_idempotent_strictly_under"),
    ("modalg", "chop"),
    ("modalg", "_matrix_minpoly"),
    ("modalg", "hom_dim"),
    ("modalg", "factor_multiset"),
    ("modalg", "Module._verify"),
    ("linalg", "_matmul_arr"),
    ("linalg", "_rref_arr"),
    ("linalg", "_nullspace_arr"),
    ("linalg", "_kron_arr"),
    ("permgroup", "group_from_json"),
    ("report", "StructureReport.to_json"),
    ("goldens", "run_paper_suite"),
    ("goldens", "run_property_suite"),
]


def _matmul_ops(args):
    _, a, b = args[:3]
    return "ops", a.shape[0] * a.shape[1] * b.shape[1]


def _rref_cells(args):
    return "cells", args[1].shape[0] * args[1].shape[1]


def _minpoly_dim(args):
    return "max_dim", args[1].shape[0]


def _hom_system_cells(args):
    v, w = args[:2]
    if v.dim == 0 or w.dim == 0 or not v.gen_action:
        return "max_system_cells", 0
    unknowns = v.dim * w.dim
    return "max_system_cells", len(v.gen_action) * unknowns * unknowns


# per-call sizes read from the arguments: "max_*" keeps the largest, the
# rest are summed
METERS = {
    "linalg._matmul_arr": _matmul_ops,
    "linalg._rref_arr": _rref_cells,
    "modalg._matrix_minpoly": _minpoly_dim,
    "modalg.hom_space": _hom_system_cells,
}

LAYERS = ("report", "structure", "blocks", "modalg", "linalg", "fieldcore", "permgroup", "goldens")

# The per-layer metrics a traced run reports: (span name, statistic).
# "s" is inclusive time of the outermost calls, "calls" the span count,
# "self_s" (span name = layer) the time the innermost span was in the layer.
PER_LAYER = [
    ("report.analyze_algebra", "s"),
    ("report.analyze_algebra", "calls"),
    ("report.StructureReport.to_json", "s"),
    ("report", "self_s"),
    ("structure.find_simples", "s"),
    ("structure.jacobson_radical", "s"),
    ("structure.primitive_decomposition", "s"),
    ("structure.cartan_both", "s"),
    ("structure.pim_structure_report", "s"),
    ("structure.lift_idempotent", "calls"),
    ("structure.lift_idempotent", "s"),
    ("structure._ideal_nilpotency_index", "calls"),
    ("structure._ideal_nilpotency_index", "s"),
    ("structure", "self_s"),
    ("blocks.block_partition", "s"),
    ("blocks._central_idempotent_strictly_under", "calls"),
    ("blocks._central_idempotent_strictly_under", "s"),
    ("blocks.module_block_assignment", "s"),
    ("blocks", "self_s"),
    ("modalg.regular_module", "calls"),
    ("modalg.regular_module", "s"),
    ("modalg.Module._verify", "calls"),
    ("modalg.Module._verify", "s"),
    ("modalg.sub_quotient", "calls"),
    ("modalg.sub_quotient", "s"),
    ("modalg.chop", "calls"),
    ("modalg.chop", "s"),
    ("modalg.is_irreducible", "calls"),
    ("modalg.is_irreducible", "s"),
    ("modalg._matrix_minpoly", "calls"),
    ("modalg._matrix_minpoly", "s"),
    ("modalg._matrix_minpoly", "max_dim"),
    ("modalg.modules_isomorphic", "calls"),
    ("modalg.modules_isomorphic", "s"),
    ("modalg.hom_space", "calls"),
    ("modalg.hom_space", "s"),
    ("modalg.hom_space", "max_system_cells"),
    ("modalg.spin", "calls"),
    ("modalg.spin", "s"),
    ("modalg.radical_and_socle_series", "s"),
    ("modalg.induce_module", "s"),
    ("modalg.restrict_module", "s"),
    ("modalg", "self_s"),
    ("linalg._matmul_arr", "calls"),
    ("linalg._matmul_arr", "s"),
    ("linalg._matmul_arr", "ops"),
    ("linalg._rref_arr", "calls"),
    ("linalg._rref_arr", "s"),
    ("linalg._rref_arr", "cells"),
    ("linalg._nullspace_arr", "calls"),
    ("linalg._nullspace_arr", "s"),
    ("linalg._kron_arr", "calls"),
    ("linalg._kron_arr", "s"),
    ("linalg", "self_s"),
    ("fieldcore.field_make", "s"),
    ("fieldcore.poly_factor", "calls"),
    ("fieldcore.poly_factor", "s"),
    ("fieldcore", "self_s"),
    ("permgroup.group_generate", "s"),
    ("permgroup.conjugacy_data", "calls"),
    ("permgroup.conjugacy_data", "s"),
    ("goldens.run_paper_suite", "s"),
    ("goldens.run_property_suite", "s"),
]


def metric_name(span: str, stat: str) -> str:
    return f"{span}.{stat}"


def metric_unit(stat: str) -> str:
    return "s" if stat in ("s", "self_s") else "count"


class Tracer:
    """Records spans of wrapped modrep calls; ``paused`` skips recording."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same name
        self.sizes: dict[str, dict[str, int]] = {}
        self.paused = False
        self._stack = [-1]
        self._depth: list[int] = []
        self._replaced: list[tuple[object, str, object]] = []  # (owner, attr, original)

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        self._depth.append(0)
        meter = METERS.get(span)
        sizes = self.sizes.setdefault(span, {})
        stack, depth = self._stack, self._depth
        name_id, parent, start, end, outer = (
            self.name_id, self.parent, self.start, self.end, self.outermost)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if meter is not None:
                key, val = meter(args)
                if key.startswith("max_"):
                    sizes[key] = max(sizes.get(key, 0), val)
                else:
                    sizes[key] = sizes.get(key, 0) + val
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            outer.append(depth[nid] == 0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                depth[nid] -= 1
                stack.pop()

        return wrapper

    def install(self) -> None:
        """Wrap the targets in every loaded modrep module that refers to them."""
        import modrep

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "modrep" or name.startswith("modrep.")]
        targets = []
        for export in modrep.__all__:
            obj = getattr(modrep, export)
            if inspect.isfunction(obj):
                targets.append((obj.__module__.split(".")[-1], export, None, obj))
        for mod, attr in EXTRA_TARGETS:
            module = sys.modules.get(f"modrep.{mod}")
            if module is None:  # e.g. goldens when the workload does not load it
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(module, cls_name)
                targets.append((mod, attr, cls, vars(cls)[meth]))
            else:
                targets.append((mod, attr, None, getattr(module, attr)))
        for mod, attr, cls, fn in targets:
            if f"{mod}.{attr}" in self.names:  # exported and also listed in EXTRA_TARGETS
                continue
            wrapper = self._wrap(f"{mod}.{attr}", fn)
            if cls is not None:  # a method: patched on its class
                self._replace(cls, attr.rpartition(".")[2], wrapper)
                continue
            for module in modules:
                for key, val in list(vars(module).items()):
                    if val is fn:
                        self._replace(module, key, wrapper)

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._replaced.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original back (tests share the process with modrep)."""
        for owner, attr, original in reversed(self._replaced):
            setattr(owner, attr, original)
        self._replaced.clear()

    def mark(self) -> tuple[int, dict]:
        """The spans and sizes recorded so far, for metrics() to report."""
        return len(self.start), {k: dict(v) for k, v in self.sizes.items()}

    def metrics(self, mark: tuple[int, dict]) -> dict[str, dict]:
        """Per-layer metrics over the spans and sizes recorded up to a mark."""
        upto, sizes = mark
        ids = self.name_id[:upto]
        n = len(ids)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child[par] += dur[i]
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        for i in range(n):
            name = self.names[ids[i]]
            calls[name] = calls.get(name, 0) + 1
            if self.outermost[i]:
                incl[name] = incl.get(name, 0.0) + dur[i]
            self_s[name.split(".")[0]] += dur[i] - child[i]
        out = {}
        for span, stat in PER_LAYER:
            if stat == "self_s":
                val = self_s[span]
            elif stat == "s":
                val = incl.get(span, 0.0)
            elif stat == "calls":
                val = calls.get(span, 0)
            else:
                val = sizes.get(span, {}).get(stat, 0)
            out[metric_name(span, stat)] = {"value": val, "unit": metric_unit(stat)}
        return out

    def dump(self, path) -> None:
        """Write every span as columns: name index, parent span, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                fh,
            )
