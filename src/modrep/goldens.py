"""Golden reproduction checks and the randomized property suites.

Every check returns a CheckResult so the CLI can print a one-line ledger and
tests can assert each acceptance criterion at its stated tolerance (all of
them exact).  Simple labels follow the classical conventions: for A4 the
scalar through which (1,2,3) acts names the line (T2 = omega, T3 = omega^2);
for A5 the dimension plus the head of the restriction to A4 names the rest
(S2 restricts with head T2, S3 with head T3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .blocks import cyclic_idempotents
from .errors import ModrepError
from .fieldcore import field_make
from .linalg import Mat, Subspace, subspace_ops
from .modalg import (
    GroupAlgebra,
    Pcg64Ints,
    _iso_classes,
    chop,
    direct_sum,
    hom_dim,
    induce_module,
    modules_isomorphic,
    radical_and_socle_series,
    radical_chain,
    regular_module,
    restrict_module,
    section_module,
    socle_chain,
    spin,
    sub_quotient,
    trivial_module,
)
from .permgroup import Subgroup, builtin, parse_cycles
from .report import Analysis, analyze_algebra
from .structure import find_simples, jacobson_radical


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        mark = "ok  " if self.passed else "FAIL"
        tail = f": {self.detail}" if self.detail else ""
        return f"{mark} {self.name}{tail}"


class Workbench:
    """Shared analyses for one seed, plus the label dictionaries."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._analyses: dict = {}

    def analysis(self, name: str, p: int, k: int) -> Analysis:
        key = (name, p, k)
        if key not in self._analyses:
            self._analyses[key] = analyze_algebra(
                builtin(name), field_make(p, k), self.seed, group_spec={"builtin": name}
            )
        return self._analyses[key]

    def a4(self) -> Analysis:
        return self.analysis("A4", 2, 2)

    def a5(self) -> Analysis:
        return self.analysis("A5", 2, 2)

    def t_map(self) -> dict[str, int]:
        """T-label -> A4 simple index, via the scalar action of (1,2,3)."""
        an = self.a4()
        g = an.algebra.group
        k = an.algebra.field
        r = g.index_of(parse_cycles("(1,2,3)", 5))
        w = k.omega.val
        out = {}
        for i, m in enumerate(an.simples.simples):
            val = int(m.element_mat(r).a[0, 0])
            out[{1: "T1", w: "T2", k.mul(w, w): "T3"}[val]] = i
        return out

    def s_map(self) -> dict[str, int]:
        """S-label -> A5 simple index, via dims and restriction heads."""
        a5 = self.a5()
        a4 = self.a4()
        tmap = self.t_map()
        out = {}
        twodims = []
        for i, m in enumerate(a5.simples.simples):
            if m.dim == 1:
                out["S1"] = i
            elif m.dim == 4:
                out["S4"] = i
            else:
                twodims.append(i)
        for i in twodims:
            res = restrict_module(a5.simples.simples[i], a4.algebra.group)
            data = radical_and_socle_series(res, a4.radical, a4.pims.heads)
            head = data.radical_layers[0].mults
            if head[tmap["T2"]]:
                out["S2"] = i
            else:
                out["S3"] = i
        return out


def _layer_signature(data, index_of_label: dict[str, int]) -> list[dict[str, int]]:
    """Radical layers as {label: multiplicity} dicts in reference labels."""
    label_of = {v: k for k, v in index_of_label.items()}
    out = []
    for layer in data.radical_layers:
        out.append({label_of[i]: int(m) for i, m in enumerate(layer.mults) if m})
    return out


def _nilpotency_degree(a: GroupAlgebra, elem) -> int:
    power = elem
    n = 1
    while not power.is_zero():
        power = power * elem
        n += 1
        if n > a.dim + 1:
            return -1
    return n


# ------------------------------------------------------------ paper suite --


def check_klein(wb: Workbench) -> list[CheckResult]:
    an = wb.analysis("V4", 2, 1)
    out = [
        CheckResult(
            "klein.simples",
            [m.dim for m in an.simples.simples] == [1],
            f"dims {[m.dim for m in an.simples.simples]}",
        )
    ]
    pims = an.pims
    out.append(
        CheckResult(
            "klein.pim_is_regular_dim4",
            len(pims.pims) == 1 and pims.pims[0].dim == 4,
            f"{len(pims.pims)} PIMs, dims {[p.dim for p in pims.pims]}",
        )
    )
    layers = an.pim_reports[0].loewy.layer_dims()
    out.append(CheckResult("klein.loewy_dims_1_2_1", layers == [1, 2, 1], f"{layers}"))
    out.append(
        CheckResult("klein.cartan", an.cartan.entries == [[4]], f"{an.cartan.entries}")
    )
    out.append(
        CheckResult(
            "klein.one_block",
            an.block_partition.count == 1,
            f"{an.block_partition.count} blocks",
        )
    )
    # exhaustive idempotent search over all 16 elements of kC2xC2
    a = an.algebra
    found = []
    for bits in itertools.product([0, 1], repeat=4):
        e = a.from_coeffs(list(enumerate(bits)))
        if e.is_idempotent():
            found.append(bits)
    out.append(
        CheckResult(
            "klein.only_idempotents_0_and_1",
            sorted(found) == [(0, 0, 0, 0), (1, 0, 0, 0)],
            f"{len(found)} idempotents found",
        )
    )
    return out


def check_cyclic(wb: Workbench) -> list[CheckResult]:
    out = []
    for name, p, length in [("C2", 2, 2), ("C4", 2, 4), ("C5", 5, 5)]:
        an = wb.analysis(name, p, 1)
        rep = an.pim_reports[0]
        dims = rep.loewy.layer_dims()
        triv = an.simples.trivial_index()
        all_trivial = all(
            layer.mults[triv] * 1 == layer.dim for layer in rep.loewy.radical_layers
        )
        out.append(
            CheckResult(
                f"cyclic.{name}.uniserial_trivial_layers",
                len(an.simples.simples) == 1
                and dims == [1] * length
                and all_trivial,
                f"layer dims {dims}",
            )
        )
        a = an.algebra
        gen_idx = a.group.generators[0]
        one_minus_g = a.one() - a.basis_elem(gen_idx)
        deg = _nilpotency_degree(a, one_minus_g)
        out.append(
            CheckResult(
                f"cyclic.{name}.nilpotency_degree_of_1_minus_g",
                deg == a.group.order,
                f"degree {deg}, |G| = {a.group.order}",
            )
        )
        # the radical is exactly the span of the positive powers of (1-g)
        powers = []
        power = one_minus_g
        while not power.is_zero():
            powers.append(power.coeffs)
            power = power * one_minus_g
        span = Subspace.from_vectors(a.field, a.dim, powers)
        out.append(
            CheckResult(
                f"cyclic.{name}.radical_spanned_by_1_minus_g",
                span == an.radical,
                f"span dim {span.dim}, rad dim {an.radical.dim}",
            )
        )
    return out


def check_ka4(wb: Workbench) -> list[CheckResult]:
    an = wb.a4()
    tmap = wb.t_map()
    out = [
        CheckResult(
            "ka4.simples_three_lines",
            [m.dim for m in an.simples.simples] == [1, 1, 1]
            and an.simples.p_regular_classes == 3,
            f"dims {[m.dim for m in an.simples.simples]}, "
            f"{an.simples.p_regular_classes} 2-regular classes",
        )
    ]
    pim_dims = [an.pims.pim_for_simple(i).dim for i in range(3)]
    out.append(CheckResult("ka4.pim_dims_4_4_4", pim_dims == [4, 4, 4], f"{pim_dims}"))

    sig_ok = True
    details = []
    for ti in ["T1", "T2", "T3"]:
        rep = an.pim_reports[tmap[ti]]
        sig = _layer_signature(rep.loewy, tmap)
        others = {t: 1 for t in ["T1", "T2", "T3"] if t != ti}
        expect = [{ti: 1}, others, {ti: 1}]
        if sig != expect:
            sig_ok = False
        details.append(f"Q_{ti[1]}: {sig}")
    out.append(CheckResult("ka4.pim_loewy_layers", sig_ok, "; ".join(details)))

    perm = [tmap["T1"], tmap["T2"], tmap["T3"]]
    cart = [[an.cartan.entries[i][j] for j in perm] for i in perm]
    out.append(
        CheckResult(
            "ka4.cartan",
            cart == [[2, 1, 1], [1, 2, 1], [1, 1, 2]],
            f"{cart}",
        )
    )
    out.append(
        CheckResult(
            "ka4.one_block",
            an.block_partition.count == 1,
            f"{an.block_partition.count} blocks",
        )
    )

    # character-formula idempotents of <(1,2,3)>: coefficient-exact values
    a = an.algebra
    g = a.group
    k = a.field
    w = k.omega.val
    w2 = k.mul(w, w)
    r = g.index_of(parse_cycles("(1,2,3)", 5))
    r2 = g.mul(r, r)
    es = cyclic_idempotents(a, Subgroup(g, sorted({0, r, r2})))
    golden = [
        {0: 1, r: 1, r2: 1},
        {0: 1, r: w, r2: w2},
        {0: 1, r: w2, r2: w},
    ]
    got = [
        {int(i): int(e.coeffs[i]) for i in np.nonzero(e.coeffs)[0]} for e in es
    ]
    out.append(
        CheckResult(
            "ka4.cyclic_idempotents_coefficient_exact",
            got == golden,
            f"e1..e3 supports {[sorted(d) for d in got]}",
        )
    )

    reg = regular_module(a)
    qs = {t: an.pims.pim_for_simple(tmap[t]) for t in ["T1", "T2", "T3"]}
    pairing = []
    for idx, e in enumerate(es, start=1):
        piece, _ = sub_quotient(reg, spin(reg, [e.coeffs]))
        hit = [t for t, q in qs.items() if modules_isomorphic(piece, q, wb.seed)]
        pairing.append((idx, hit[0] if len(hit) == 1 else None))
    spun_ok = (
        all(t is not None for _, t in pairing)
        and sorted(t for _, t in pairing) == ["T1", "T2", "T3"]
        and pairing[0][1] == "T1"
    )
    # dim Hom(Ae, U) = dim eU forces spin(e_2) and spin(e_3) to land on the
    # crossed PIMs (Q_3 and Q_2); assert the set-level identity and the
    # unambiguous e_1 -> Q_1, and record the actual pairing
    out.append(
        CheckResult(
            "ka4.spinning_idempotents_yields_the_pims",
            spun_ok,
            "; ".join(f"spin(e{i}) iso Q_{t[1]}" for i, t in pairing),
        )
    )
    return out


def check_ka5(wb: Workbench) -> list[CheckResult]:
    an = wb.a5()
    smap = wb.s_map()
    inv = {v: k for k, v in smap.items()}
    out = [
        CheckResult(
            "ka5.simples_dims_1_2_2_4",
            [m.dim for m in an.simples.simples] == [1, 2, 2, 4]
            and an.simples.p_regular_classes == 4,
            f"dims {[m.dim for m in an.simples.simples]}",
        )
    ]
    dims = [an.pims.pim_for_simple(smap[s]).dim for s in ["S1", "S2", "S3", "S4"]]
    mults = an.pims.multiplicities(4)
    mults_ref = [mults[smap[s]] for s in ["S1", "S2", "S3", "S4"]]
    out.append(
        CheckResult(
            "ka5.pim_dims_and_multiplicities",
            dims == [12, 8, 8, 4] and mults_ref == [1, 2, 2, 4],
            f"dims {dims}, multiplicities {mults_ref}",
        )
    )

    expected_p2 = [{"S2": 1}, {"S1": 1}, {"S3": 1}, {"S1": 1}, {"S2": 1}]
    expected_p3 = [{"S3": 1}, {"S1": 1}, {"S2": 1}, {"S1": 1}, {"S3": 1}]
    sig2 = _layer_signature(an.pim_reports[smap["S2"]].loewy, smap)
    sig3 = _layer_signature(an.pim_reports[smap["S3"]].loewy, smap)
    out.append(
        CheckResult(
            "ka5.p2_p3_uniserial",
            sig2 == expected_p2 and sig3 == expected_p3,
            f"P2 {sig2}; P3 {sig3}",
        )
    )
    rep4 = an.pim_reports[smap["S4"]]
    out.append(
        CheckResult(
            "ka5.p4_is_simple_projective",
            rep4.dim == 4
            and rep4.loewy.loewy_length == 1
            and modules_isomorphic(
                an.pims.pim_for_simple(smap["S4"]),
                an.simples.simples[smap["S4"]],
                wb.seed,
            ),
            f"dim {rep4.dim}, loewy length {rep4.loewy.loewy_length}",
        )
    )
    sig1 = _layer_signature(an.pim_reports[smap["S1"]].loewy, smap)
    expected_p1 = [
        {"S1": 1},
        {"S2": 1, "S3": 1},
        {"S1": 2},
        {"S2": 1, "S3": 1},
        {"S1": 1},
    ]
    out.append(CheckResult("ka5.p1_layers", sig1 == expected_p1, f"P1 {sig1}"))

    # rad P1 / soc P1 = T2^A5 + T3^A5
    p1 = an.pims.pim_for_simple(smap["S1"])
    rads = radical_chain(p1, an.radical)
    socs = socle_chain(p1, an.radical)
    middle = section_module(p1, rads[1], socs[1])
    a4 = wb.a4()
    tmap = wb.t_map()
    t2_ind = induce_module(a4.simples.simples[tmap["T2"]], an.algebra)
    t3_ind = induce_module(a4.simples.simples[tmap["T3"]], an.algebra)
    out.append(
        CheckResult(
            "ka5.rad_p1_mod_soc_p1",
            modules_isomorphic(middle, direct_sum([t2_ind, t3_ind]), wb.seed),
            f"middle dim {middle.dim} vs T2^A5 + T3^A5",
        )
    )

    perm = [smap[s] for s in ["S1", "S2", "S3", "S4"]]
    cart = [[an.cartan.entries[i][j] for j in perm] for i in perm]
    out.append(
        CheckResult(
            "ka5.cartan",
            cart == [[4, 2, 2, 0], [2, 2, 1, 0], [2, 1, 2, 0], [0, 0, 0, 1]],
            f"{cart}",
        )
    )
    bp = an.block_partition
    principal_labels = sorted(inv[i] for i in bp.parts[bp.principal_index])
    out.append(
        CheckResult(
            "ka5.two_blocks",
            bp.count == 2 and principal_labels == ["S1", "S2", "S3"],
            f"{bp.count} blocks, principal {principal_labels}",
        )
    )
    out.append(
        CheckResult(
            "ka5.block_dims_44_16",
            sorted(an.block_dims, reverse=True) == [44, 16]
            and an.block_dims[bp.principal_index] == 44,
            f"dims {an.block_dims}",
        )
    )
    return out


def check_induction_restriction(wb: Workbench) -> list[CheckResult]:
    a4 = wb.a4()
    a5 = wb.a5()
    tmap = wb.t_map()
    smap = wb.s_map()
    ts = {t: a4.simples.simples[tmap[t]] for t in ["T1", "T2", "T3"]}
    ss = {s: a5.simples.simples[smap[s]] for s in ["S1", "S2", "S3", "S4"]}
    out = []

    t2_ind = induce_module(ts["T2"], a5.algebra)
    t3_ind = induce_module(ts["T3"], a5.algebra)
    sig_t2 = _layer_signature(
        radical_and_socle_series(t2_ind, a5.radical, a5.pims.heads), smap
    )
    sig_t3 = _layer_signature(
        radical_and_socle_series(t3_ind, a5.radical, a5.pims.heads), smap
    )
    out.append(
        CheckResult(
            "induction.t2_layers_s3_s1_s2",
            sig_t2 == [{"S3": 1}, {"S1": 1}, {"S2": 1}],
            f"{sig_t2}",
        )
    )
    out.append(
        CheckResult(
            "induction.t3_layers_s2_s1_s3",
            sig_t3 == [{"S2": 1}, {"S1": 1}, {"S3": 1}],
            f"{sig_t3}",
        )
    )
    t1_ind = induce_module(ts["T1"], a5.algebra)
    out.append(
        CheckResult(
            "induction.t1_splits_s1_plus_s4",
            modules_isomorphic(t1_ind, direct_sum([ss["S1"], ss["S4"]]), wb.seed),
            f"dim {t1_ind.dim}",
        )
    )

    s2_res = restrict_module(ss["S2"], a4.algebra.group)
    sig = _layer_signature(
        radical_and_socle_series(s2_res, a4.radical, a4.pims.heads), tmap
    )
    out.append(
        CheckResult(
            "restriction.s2_to_a4_uniserial_t2_over_t3",
            sig == [{"T2": 1}, {"T3": 1}],
            f"{sig}",
        )
    )
    s1_res = restrict_module(ss["S1"], a4.algebra.group)
    out.append(
        CheckResult(
            "restriction.s1_to_a4_is_trivial",
            modules_isomorphic(s1_res, ts["T1"], wb.seed),
            "",
        )
    )
    s4_res = restrict_module(ss["S4"], a4.algebra.group)
    head = radical_and_socle_series(s4_res, a4.radical, a4.pims.heads).radical_layers[0]
    out.append(
        CheckResult(
            "restriction.s4_to_a4_head_is_trivial",
            head.dim == 1 and head.mults[tmap["T1"]] == 1,
            f"head mults {head.mults}",
        )
    )
    return out


def run_paper_suite(seed: int = 0) -> list[CheckResult]:
    """Every golden reproduction comparison, one line per check."""
    wb = Workbench(seed)
    out = []
    for fn in (check_klein, check_cyclic, check_ka4, check_ka5, check_induction_restriction):
        try:
            out.extend(fn(wb))
        except ModrepError as exc:  # an upstream contract violation is a failure
            out.append(CheckResult(fn.__name__, False, f"{type(exc).__name__}: {exc}"))
    return out


# ------------------------------------------------------- property suites --

_PROPERTY_ALGEBRAS = [("V4", 2, 1), ("C4", 2, 1), ("C5", 5, 1), ("A4", 2, 2), ("A5", 2, 2)]
_MASCHKE_CASES = [("C3", 2, 2), ("C5", 2, 1), ("S3", 5, 1), ("A4", 2, 1)]


# Property checks that restate a report certificate, read off the report
# instead of derived again: (check, certificate, quote its detail).  The
# unquoted details list the Cartan matrix or every PIM, which the report holds.
_REPORT_CERTIFICATES = (
    ("cartan_symmetric", "cartan_symmetric", False),
    ("cartan_hom_equals_brauer", "cartan_methods_agree", False),
    ("dimension_identity", "dimension_identity", True),
    ("cartan_column_identity", "cartan_column_identity", False),
    ("head_iso_socle", "pim_head_iso_socle", False),
    ("pim_dim_p_part", "pim_dims_divisible_by_group_p_part", False),
    ("dual_pim_pairing", "dual_pim_pairing", False),
)


def _structure_properties(wb: Workbench) -> list[CheckResult]:
    out = []
    for name, p, k in _PROPERTY_ALGEBRAS:
        an = wb.analysis(name, p, k)
        certs = {c.name: c for c in an.report.certificates}
        for check, cert, quoted in _REPORT_CERTIFICATES:
            c = certs[cert]
            out.append(
                CheckResult(f"property.{check}.{name}", c.passed, c.detail if quoted else "")
            )
        out.append(
            CheckResult(
                f"property.block_idempotents.{name}",
                all(e.is_central() and e.is_idempotent() for e in an.block_partition.block_idempotents),
                "",
            )
        )
        # rad(A.A) = J, so the head of the regular module is A/J
        _, head = sub_quotient(regular_module(an.algebra), an.radical)
        mults = [hom_dim(m, head) for m in an.simples.simples]
        out.append(
            CheckResult(
                f"property.regular_head_multiplicities.{name}",
                mults == [m.dim for m in an.simples.simples],
                f"head mults {mults}",
            )
        )
        out.append(_block_order_invariance(an, name))
    return out


def _block_order_invariance(an: Analysis, name: str) -> CheckResult:
    """Re-run the linkage partition with the simple order reversed."""
    from .blocks import block_partition
    from .structure import CartanMatrix, PimSet

    n = len(an.simples.simples)
    perm = list(reversed(range(n)))  # new index -> old index
    inv = {old: new for new, old in enumerate(perm)}
    cart2 = CartanMatrix(
        [[an.cartan.entries[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    )
    pims2 = PimSet(
        idempotents=an.pims.idempotents,
        assignment=[inv[s] for s in an.pims.assignment],
        pims=[an.pims.pims[perm[i]] for i in range(n)],
    )
    simples2 = [an.simples.simples[perm[i]] for i in range(n)]
    bp2 = block_partition(cart2, pims2, simples2, inv[an.simples.trivial_index()])
    parts_back = sorted(sorted(perm[i] for i in part) for part in bp2.parts)
    parts_ref = sorted(sorted(part) for part in an.block_partition.parts)
    principal_back = sorted(perm[i] for i in bp2.parts[bp2.principal_index])
    principal_ref = sorted(an.block_partition.parts[an.block_partition.principal_index])
    return CheckResult(
        f"property.block_partition_order_invariant.{name}",
        parts_back == parts_ref and principal_back == principal_ref,
        f"{len(bp2.parts)} blocks either order",
    )


def _frobenius_properties(wb: Workbench) -> list[CheckResult]:
    a4 = wb.a4()
    a5 = wb.a5()
    tmap = wb.t_map()
    smap = wb.s_map()
    ok = True
    dims_ok = True
    details = []
    for tname in ["T1", "T2", "T3"]:
        t = a4.simples.simples[tmap[tname]]
        ind = induce_module(t, a5.algebra)
        if ind.dim != 5 * t.dim:
            dims_ok = False
        for sname in ["S1", "S2", "S3", "S4"]:
            s = a5.simples.simples[smap[sname]]
            res = restrict_module(s, a4.algebra.group)
            lhs1 = hom_dim(ind, s)
            rhs1 = hom_dim(t, res)
            lhs2 = hom_dim(s, ind)
            rhs2 = hom_dim(res, t)
            if lhs1 != rhs1 or lhs2 != rhs2:
                ok = False
                details.append(f"({tname},{sname}): {lhs1}/{rhs1}, {lhs2}/{rhs2}")
    return [
        CheckResult("property.frobenius_reciprocity", ok, "; ".join(details)),
        CheckResult("property.induced_dimension_formula", dims_ok, ""),
    ]


def _maschke_properties(wb: Workbench) -> list[CheckResult]:
    out = []
    for name, p, k in _MASCHKE_CASES:
        fieldctx = field_make(p, k)
        a = GroupAlgebra(builtin(name), fieldctx)
        s = find_simples(a, wb.seed)
        rad = jacobson_radical(a, s)
        coprime = a.group.order % p != 0
        out.append(
            CheckResult(
                f"property.maschke.{name}_gf{p**k}",
                (rad.dim == 0) == coprime,
                f"rad dim {rad.dim}, p {'coprime' if coprime else 'divides'} |G|",
            )
        )
    return out


def _seed_invariance_properties(wb: Workbench) -> list[CheckResult]:
    an = wb.a4()
    simples = an.simples.simples
    c = an.cartan.entries
    # kG = sum_j P_j^(dim S_j), so [kG : S_i] = sum_j C[i][j] dim S_j
    want = sorted(
        (s.dim, sum(c[i][j] * t.dim for j, t in enumerate(simples)))
        for i, s in enumerate(simples)
    )
    reg = regular_module(an.algebra)
    ok = all(
        sorted((r.dim, n) for r, n in _iso_classes(chop(reg, wb.seed * 31 + s))) == want
        for s in range(5)
    )
    return [
        CheckResult(
            "property.composition_factors_seed_invariant",
            ok and sum(d * n for d, n in want) == an.algebra.dim,
            f"(dim, count) {want} by Cartan and by the chop at 5 seeds",
        )
    ]


def _oracle_properties(wb: Workbench) -> list[CheckResult]:
    rng = Pcg64Ints(wb.seed + 99)
    out = []

    # hom dimensions vs exhaustive enumeration, GF(2), dims <= 3
    gf2 = field_make(2, 1)
    c3 = GroupAlgebra(builtin("C3"), gf2)
    c2 = GroupAlgebra(builtin("C2"), gf2)
    mods = []
    for alg in (c2, c3):
        mods.append(trivial_module(alg))
        mods.append(regular_module(alg))
    ok = True
    details = []
    for v in mods:
        for w in mods:
            if v.algebra != w.algebra or v.dim * w.dim > 9:
                continue
            expected = 0
            for bits in itertools.product([0, 1], repeat=v.dim * w.dim):
                x = np.array(bits, dtype=gf2.dtype).reshape(w.dim, v.dim)
                xm = Mat(gf2, x)
                if all(
                    (xm @ gv) == (gw @ xm)
                    for gv, gw in zip(v.gen_action, w.gen_action)
                ):
                    expected += 1
            # expected counts matrices; the hom space has 2^dim of them
            got = hom_dim(v, w)
            if 2**got != expected:
                ok = False
                details.append(f"{v.dim}x{w.dim}: 2^{got} != {expected}")
    out.append(CheckResult("oracle.hom_dims_exhaustive_gf2", ok, "; ".join(details)))

    # idempotent lifting outputs satisfy f^2 = f by structure constants
    a4 = wb.a4()
    ok = True
    for f in a4.pims.idempotents:
        n = a4.algebra.dim
        k = a4.algebra.field
        prod = [0] * n
        for i in range(n):
            ci = int(f.coeffs[i])
            if not ci:
                continue
            for j in range(n):
                cj = int(f.coeffs[j])
                if cj:
                    t = a4.algebra.group.mul(i, j)
                    prod[t] = k.add(prod[t], k.mul(ci, cj))
        if prod != [int(x) for x in f.coeffs]:
            ok = False
    out.append(CheckResult("oracle.idempotents_square_by_structure_constants", ok, ""))

    # subspace dimension formula on 500 random cases
    fields = [gf2, field_make(2, 2), field_make(5, 1)]
    ok = True
    for trial in range(500):
        fld = fields[trial % len(fields)]
        n = rng.integers(1, 8)
        # each subspace spanned by 3 drawn rows of n entries, drawn row by row
        u, v = (
            Subspace.from_vectors(
                fld, n, [[rng.integers(0, fld.order) for _ in range(n)] for _ in range(3)]
            )
            for _ in range(2)
        )
        total, meet = subspace_ops(u, v)
        if total.dim + meet.dim != u.dim + v.dim:
            ok = False
            break
    out.append(CheckResult("oracle.subspace_dimension_formula_500", ok, ""))
    return out


def run_property_suite(seed: int = 0) -> list[CheckResult]:
    """Randomized invariants plus the micro-scale oracle equivalences."""
    wb = Workbench(seed)
    out = []
    for fn in (
        _structure_properties,
        _frobenius_properties,
        _maschke_properties,
        _seed_invariance_properties,
        _oracle_properties,
    ):
        try:
            out.extend(fn(wb))
        except ModrepError as exc:
            out.append(CheckResult(fn.__name__, False, f"{type(exc).__name__}: {exc}"))
    return out
