"""Structure reports: the full pipeline bundled with its certificates.

A report serializes deterministically for a fixed (input, seed, version):
JSON output is canonical (sorted keys, fixed separators) and omits wall
clock timings unless explicitly requested, so repeated runs are
byte-identical.  The text format prints the same content with one Loewy
diagram per PIM, layers top (head) to bottom (socle).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from . import __version__
from .fieldcore import FieldCtx, field_to_json
from .linalg import Subspace
from .modalg import GroupAlgebra, regular_module
from .permgroup import GroupTable, group_to_json
from .structure import (
    CartanMatrix,
    PimSet,
    SimpleSet,
    _p_part,
    cartan_both,
    find_simples,
    jacobson_radical,
    pim_structure_report,
    primitive_decomposition,
)
from .blocks import BlockPartition, block_partition

SCHEMA = "modrep-report/1"


@dataclass
class Certificate:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class StructureReport:
    group_spec: dict
    field_spec: dict
    seed: int
    simples: list[dict]
    pims: list[dict]
    cartan: Optional[list[list[int]]]
    blocks: Optional[dict]
    certificates: list[Certificate]
    timings: dict[str, float]
    label_map: dict[str, str] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.certificates)

    def _label(self, name: str) -> str:
        return self.label_map.get(name, name)

    def to_obj(self, include_timings: bool = False) -> dict:
        lab = self._label
        obj = {
            "schema": SCHEMA,
            "tool_version": __version__,
            "input": {
                "group": self.group_spec,
                "field": self.field_spec,
                "seed": self.seed,
            },
            "simples": [dict(s, label=lab(s["label"])) for s in self.simples],
            "pims": [
                {
                    "label": lab(p["label"]),
                    "dim": p["dim"],
                    "head": lab(p["head"]) if p["head"] else None,
                    "socle": lab(p["socle"]) if p["socle"] else None,
                    "loewy_layers": [
                        [{"simple": lab(e["simple"]), "mult": e["mult"]} for e in layer]
                        for layer in p["loewy_layers"]
                    ],
                }
                for p in self.pims
            ],
            "cartan": self.cartan,
            "blocks": (
                {
                    "parts": [[lab(s) for s in part] for part in self.blocks["parts"]],
                    "principal": self.blocks["principal"],
                    "dims": self.blocks["dims"],
                    "primitivity_verified": self.blocks["primitivity_verified"],
                }
                if self.blocks is not None
                else None
            ),
            "certificates": [
                {"name": c.name, "status": "pass" if c.passed else "fail", "detail": c.detail}
                for c in self.certificates
            ],
        }
        if include_timings:
            obj["timings"] = self.timings
        return obj

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.to_obj(include_timings), sort_keys=True, indent=2) + "\n"

    def to_text(self) -> str:
        lab = self._label
        lines = [f"modrep structure report ({SCHEMA}, tool {__version__})"]
        lines.append(
            f"group: {self.group_spec.get('builtin', 'custom')} "
            f"(order {self.group_spec['order']}, degree {self.group_spec['degree']})  "
            f"field: GF({self.field_spec['char']}^{self.field_spec['degree']})  "
            f"seed: {self.seed}"
        )
        lines.append(
            "simples: "
            + "; ".join(f"{lab(s['label'])} dim {s['dim']}" for s in self.simples)
        )
        for p in self.pims:
            layer_strs = []
            for layer in p["loewy_layers"]:
                names: list[str] = []
                for e in layer:
                    names.extend([lab(e["simple"])] * e["mult"])
                layer_strs.append("+".join(names) if names else "-")
            lines.append(
                f"PIM {lab(p['label'])} (dim {p['dim']}, head {lab(p['head'])}, "
                f"socle {lab(p['socle'])}): " + " | ".join(layer_strs)
            )
        if self.cartan is not None:
            lines.append("cartan:")
            for row in self.cartan:
                lines.append("  [" + " ".join(f"{x:2d}" for x in row) + "]")
        if self.blocks is not None:
            parts = []
            for b, part in enumerate(self.blocks["parts"]):
                tag = "principal " if b == self.blocks["principal"] else ""
                parts.append(
                    f"{tag}{{{','.join(lab(s) for s in part)}}} dim {self.blocks['dims'][b]}"
                )
            lines.append("blocks: " + " | ".join(parts))
        lines.append("certificates:")
        for c in self.certificates:
            status = "pass" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail and not c.passed else ""
            lines.append(f"  {c.name}: {status}{detail}")
        lines.append(
            "timings: "
            + " ".join(f"{k}={v * 1000:.0f}ms" for k, v in self.timings.items())
        )
        return "\n".join(lines) + "\n"


@dataclass
class Analysis:
    """Everything the pipeline produced, for programmatic consumers."""

    algebra: GroupAlgebra
    simples: SimpleSet
    radical: Subspace
    pims: Optional[PimSet]
    cartan: Optional[CartanMatrix]
    pim_reports: Optional[list]
    block_partition: Optional[BlockPartition]
    block_dims: Optional[list[int]]
    report: StructureReport


def analyze_algebra(
    group: GroupTable,
    fieldctx: FieldCtx,
    seed: int = 0,
    group_spec: Optional[dict] = None,
    label_map: Optional[dict[str, str]] = None,
) -> Analysis:
    """Run the full structure pipeline and assemble the certified report.

    timings holds one entry per stage, plus "assembly" for the rest of the
    call (the block dimensions, as ranks of e_B on kG, and the certificates),
    so the entries sum to the call's wall time.
    """
    start = time.perf_counter()
    timings: dict[str, float] = {}
    certs: list[Certificate] = []

    def clock(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[name] = time.perf_counter() - t0
        return out

    a = GroupAlgebra(group, fieldctx)
    gspec = dict(group_spec or {})
    gspec.update(group_to_json(group))
    gspec["order"] = group.order

    s = clock("find_simples", find_simples, a, seed)
    simples_out = [{"label": m.label or f"S{i+1}", "dim": m.dim} for i, m in enumerate(s.simples)]

    if s.splits:
        certs.append(
            Certificate(
                "simple_count_equals_p_regular_classes",
                len(s.simples) == s.p_regular_classes,
                f"{len(s.simples)} simples, {s.p_regular_classes} p-regular classes",
            )
        )
    else:
        certs.append(
            Certificate(
                "field_splits",
                False,
                "some End(S) has dimension > 1; rerun over an extension field",
            )
        )

    rad = clock("jacobson_radical", jacobson_radical, a, s)

    def finish(pims_out: list, cartan, blocks_out) -> StructureReport:
        timings["assembly"] = time.perf_counter() - start - sum(timings.values())
        return StructureReport(
            group_spec=gspec,
            field_spec=field_to_json(fieldctx),
            seed=seed,
            simples=simples_out,
            pims=pims_out,
            cartan=cartan,
            blocks=blocks_out,
            certificates=certs,
            timings=timings,
            label_map=label_map or {},
        )

    if not s.splits:
        return Analysis(a, s, rad, None, None, None, None, None, finish([], None, None))

    pims = clock("primitive_decomposition", primitive_decomposition, a, s, rad)
    n = len(s.simples)

    dim_identity = sum(
        m.dim * pims.pim_for_simple(i).dim for i, m in enumerate(s.simples)
    )
    certs.append(
        Certificate(
            "dimension_identity",
            dim_identity == group.order,
            f"sum dim S * dim P = {dim_identity}, |G| = {group.order}",
        )
    )
    mults = pims.multiplicities(n)
    certs.append(
        Certificate(
            "regular_multiplicities_equal_simple_dims",
            mults == [m.dim for m in s.simples],
            f"multiplicities {mults}",
        )
    )

    via_hom, via_brauer = clock("cartan", cartan_both, a, s, pims)
    certs.append(
        Certificate(
            "cartan_methods_agree",
            via_hom == via_brauer,
            f"hom {via_hom} vs brauer {via_brauer}",
        )
    )
    cart = CartanMatrix(via_hom)
    certs.append(Certificate("cartan_symmetric", cart.is_symmetric(), ""))
    col_ok = all(
        sum(via_hom[i][j] * s.simples[i].dim for i in range(n))
        == pims.pim_for_simple(j).dim
        for j in range(n)
    )
    certs.append(Certificate("cartan_column_identity", col_ok, ""))

    reports = clock("pim_structure", pim_structure_report, a, s, pims, rad)
    pims_out = []
    for i, rep in enumerate(reports):
        layers = []
        for layer in rep.loewy.radical_layers:
            layers.append(
                [
                    {"simple": s.simples[j].label, "mult": int(mult)}
                    for j, mult in enumerate(layer.mults)
                    if mult
                ]
            )
        pims_out.append(
            {
                "label": f"P{i+1}",
                "dim": rep.dim,
                "head": s.simples[rep.head_index].label if rep.head_index is not None else None,
                "socle": s.simples[rep.socle_index].label if rep.socle_index is not None else None,
                "loewy_layers": layers,
            }
        )
    certs.append(
        Certificate(
            "pim_head_iso_socle",
            all(r.head_iso_socle for r in reports),
            "; ".join(
                f"P{i+1}: head S{r.head_index + 1 if r.head_index is not None else '?'}"
                f" socle S{r.socle_index + 1 if r.socle_index is not None else '?'}"
                for i, r in enumerate(reports)
            ),
        )
    )
    gp = _p_part(group.order, fieldctx.char)
    certs.append(
        Certificate(
            "pim_dims_divisible_by_group_p_part",
            all(r.dim_divisible_by_group_p_part for r in reports),
            f"|G|_p = {gp}",
        )
    )
    certs.append(
        Certificate(
            "dual_pim_pairing",
            all(r.dual_pairing_ok for r in reports),
            "; ".join(
                f"P{i+1}* ~ P{r.dual_partner + 1 if r.dual_partner is not None else '?'}"
                for i, r in enumerate(reports)
            ),
        )
    )

    bp = clock("blocks", block_partition, cart, pims, s.simples, s.trivial_index())
    reg = regular_module(a)
    block_dims = [reg.action_of(e).rank() for e in bp.block_idempotents]
    formula_dims = [
        sum(s.simples[i].dim * pims.pim_for_simple(i).dim for i in part)
        for part in bp.parts
    ]
    certs.append(
        Certificate(
            "block_dims_consistent",
            block_dims == formula_dims and sum(block_dims) == group.order,
            f"e_B.A dims {block_dims}, formula {formula_dims}",
        )
    )
    certs.append(
        Certificate(
            "block_idempotents_primitive",
            all(bp.primitivity_verified),
            "central characters of the simples",
        )
    )
    blocks_out = {
        "parts": [[s.simples[i].label for i in part] for part in bp.parts],
        "principal": bp.principal_index,
        "dims": block_dims,
        "primitivity_verified": bp.primitivity_verified,
    }

    report = finish(pims_out, via_hom, blocks_out)
    return Analysis(a, s, rad, pims, cart, reports, bp, block_dims, report)
