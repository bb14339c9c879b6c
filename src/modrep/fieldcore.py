"""Exact arithmetic in GF(p^k) and univariate polynomial factorization over it.

Elements of GF(p^k) are encoded as integers in 0..p^k-1 whose base-p digits
are the coefficients (low degree first) of the residue modulo the field's
modulus polynomial.  A FieldCtx owns lookup tables for the full arithmetic,
so downstream code can run vectorized numpy kernels on raw encodings, and
float64 digit tables through which matrix products run as BLAS calls.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DegreeMismatch, NotPrime, ReducibleModulus, ZeroPolynomial

# Fixed moduli so that omega and every derived report is bit-identical across
# runs; everything else falls back to the lexicographically-least search.
BUILTIN_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),  # x^2 + x + 1, omega^2 = omega + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (3, 1): (0, 1),
    (5, 1): (0, 1),
}

_MAX_TABLE_ORDER = 4096


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# -- polynomial helpers over the prime field GF(p), coefficients low->high --


def _pf_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pf_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pf_trim(out)


def _pf_mod(a: Sequence[int], m: Sequence[int], p: int) -> tuple[int, ...]:
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1]:
            q = (a[-1] * inv_lead) % p
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - q * mi) % p
        a.pop()
    return _pf_trim(a)


def _pf_irreducible(m: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)//2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for code in range(p**d):
            div = [(code // p**i) % p for i in range(d)] + [1]
            if not _pf_mod(m, div, p):
                return False
    return True


class FieldCtx:
    """GF(p^k) with an explicit monic irreducible modulus polynomial.

    Immutable after construction; all arithmetic is table driven and pure, so
    a context may be shared freely across threads.
    """

    def __init__(self, char: int, degree: int, modulus: Optional[Sequence[int]] = None):
        if not _is_prime(char):
            raise NotPrime(f"characteristic {char} is not prime")
        if degree < 1:
            raise DegreeMismatch(f"extension degree must be >= 1, got {degree}")
        self.char = char
        self.degree = degree
        self.order = char**degree
        if self.order > _MAX_TABLE_ORDER:
            raise DegreeMismatch(f"field order {self.order} beyond desk scale")

        if modulus is None:
            modulus = BUILTIN_MODULI.get((char, degree)) or self._search_modulus()
        modulus = tuple(int(c) % char for c in modulus)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise DegreeMismatch(
                f"modulus must be monic of degree {degree}, got coefficients {modulus}"
            )
        if not _pf_irreducible(modulus, char):
            raise ReducibleModulus(f"modulus {modulus} is reducible over GF({char})")
        self.modulus = modulus

        self._build_tables()
        self.dtype = np.uint8 if self.order <= 256 else np.uint16

    def _search_modulus(self) -> tuple[int, ...]:
        p, k = self.char, self.degree
        for code in range(p**k):
            cand = tuple((code // p**i) % p for i in range(k)) + (1,)
            if _pf_irreducible(cand, p):
                return cand
        raise ReducibleModulus(f"no irreducible polynomial found for GF({p}^{k})")

    # encoding <-> coefficient vectors

    def encode(self, coeffs: Sequence[int]) -> int:
        val = 0
        for c in reversed(list(coeffs)):
            val = val * self.char + (int(c) % self.char)
        return val

    def coeffs(self, val: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.degree):
            out.append(val % self.char)
            val //= self.char
        return tuple(out)

    def _build_tables(self) -> None:
        p, k, q = self.char, self.degree, self.order
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            ca = self.coeffs(a)
            for b in range(a, q):
                prod = _pf_mul(ca, self.coeffs(b), p)
                prod = _pf_mod(prod, self.modulus, p) if len(prod) > k else prod
                v = self.encode(prod)
                mul[a, b] = v
                mul[b, a] = v
        add = np.zeros((q, q), dtype=np.int64)
        for a in range(q):
            ca = self.coeffs(a)
            for b in range(a, q):
                v = self.encode([(x + y) % p for x, y in zip(ca, self.coeffs(b))])
                add[a, b] = v
                add[b, a] = v
        neg = np.array([self.encode([(-c) % p for c in self.coeffs(a)]) for a in range(q)])
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            inv[a] = next(b for b in range(1, q) if mul[a, b] == 1)
        sub = add[:, neg]
        dt = np.uint8 if q <= 256 else np.uint16
        self.ADD = add.astype(dt)
        self.SUB = sub.astype(dt)
        self.MUL = mul.astype(dt)
        self.NEG = neg.astype(dt)
        self.INV = inv.astype(dt)
        # Float64 tables for the BLAS product (linalg._matmul_arr), which
        # works on base-p digits, i.e. in the polynomial basis 1, x, .., x^(k-1).
        # DIGITS[t, v] is digit t of v; FOLD[t, s] holds the digits of
        # x^t x^s mod the modulus (x^t is encoded p^t); PLACE[t] = p^t.
        digits = np.array([self.coeffs(v) for v in range(q)], dtype=np.float64).T
        fold = np.array(
            [[self.coeffs(int(mul[p**t, p**s])) for s in range(k)] for t in range(k)],
            dtype=np.float64,
        )
        place = np.array([p**t for t in range(k)], dtype=np.float64)
        for name, table in (("DIGITS", digits), ("FOLD", fold), ("PLACE", place)):
            table = np.ascontiguousarray(table)
            table.flags.writeable = False
            setattr(self, name, table)

    # scalar arithmetic on raw encodings

    def add(self, a: int, b: int) -> int:
        return int(self.ADD[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.SUB[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.MUL[a, b])

    def neg(self, a: int) -> int:
        return int(self.NEG[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        return int(self.INV[a])

    def pow(self, a: int, n: int) -> int:
        n = int(n)
        if n < 0:
            a, n = self.inv(a), -n
        out, base = 1, a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def scalar_from_int(self, n: int) -> int:
        """Image of an integer under Z -> GF(p^k) (repeated addition of 1)."""
        return self.encode([n % self.char] + [0] * (self.degree - 1))

    def element_order(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative order")
        n, x = 1, a
        while x != 1:
            x = self.mul(x, a)
            n += 1
        return n

    @property
    def omega(self) -> "FieldElem":
        """The residue of x; for the default GF(4) it satisfies w^2 = w + 1."""
        if self.degree < 2:
            raise DegreeMismatch("omega only exists in proper extensions")
        return FieldElem(self, self.char)

    def elem(self, val: int) -> "FieldElem":
        return FieldElem(self, int(val) % self.order if val >= 0 else int(val))

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def elements(self) -> Iterable["FieldElem"]:
        return (FieldElem(self, v) for v in range(self.order))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.char == other.char
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.char, self.modulus))

    def __repr__(self) -> str:
        if self.degree == 1:
            return f"GF({self.char})"
        return f"GF({self.char}^{self.degree}; {poly_str(self.modulus)})"


def field_make(p: int, k: int, modulus: Optional[Sequence[int]] = None) -> FieldCtx:
    """Build GF(p^k), verifying the modulus (given or table/search supplied)."""
    return FieldCtx(p, k, modulus)


def field_from_json(text_or_obj) -> FieldCtx:
    """Field spec JSON: {"char": 2, "degree": 2, "modulus": [1, 1, 1]}."""
    obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
    return field_make(int(obj["char"]), int(obj["degree"]), obj.get("modulus"))


def field_to_json(ctx: FieldCtx) -> dict:
    return {"char": ctx.char, "degree": ctx.degree, "modulus": list(ctx.modulus)}


class FieldElem:
    """An element of a FieldCtx; thin wrapper with operator overloading."""

    __slots__ = ("ctx", "val")

    def __init__(self, ctx: FieldCtx, val: int):
        self.ctx = ctx
        self.val = int(val)

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.ctx != self.ctx:
                raise DegreeMismatch("field elements from different contexts")
            return other
        if isinstance(other, int):
            return FieldElem(self.ctx, self.ctx.scalar_from_int(other))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.add(self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.sub(self.val, o.val))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.mul(self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return FieldElem(self.ctx, self.ctx.mul(self.val, self.ctx.inv(o.val)))

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx.neg(self.val))

    def __pow__(self, n: int):
        return FieldElem(self.ctx, self.ctx.pow(self.val, n))

    def inverse(self) -> "FieldElem":
        return FieldElem(self.ctx, self.ctx.inv(self.val))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.val == self.ctx.scalar_from_int(other)
        return isinstance(other, FieldElem) and self.ctx == other.ctx and self.val == other.val

    def __hash__(self) -> int:
        return hash((self.ctx, self.val))

    def __bool__(self) -> bool:
        return self.val != 0

    def __repr__(self) -> str:
        if self.ctx.degree == 1:
            return str(self.val)
        terms = []
        for i, c in enumerate(self.ctx.coeffs(self.val)):
            if not c:
                continue
            base = "1" if i == 0 else ("w" if i == 1 else f"w^{i}")
            terms.append(base if (c == 1 and i > 0) else (str(c) if i == 0 else f"{c}*{base}"))
        return "+".join(terms) if terms else "0"


def poly_str(coeffs: Sequence[int]) -> str:
    terms = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append("x" if c == 1 else f"{c}x")
        else:
            terms.append(f"x^{i}" if c == 1 else f"{c}x^{i}")
    return " + ".join(reversed(terms)) if terms else "0"


class Poly:
    """Univariate polynomial over a FieldCtx, coefficients low->high.

    Coefficients are stored as raw encodings with trailing zeros stripped;
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: Iterable):
        vals = []
        for c in coeffs:
            if isinstance(c, FieldElem):
                vals.append(c.val)
            else:
                vals.append(int(c) % ctx.order if ctx.degree > 1 else int(c) % ctx.char)
        while vals and vals[-1] == 0:
            vals.pop()
        self.ctx = ctx
        self.coeffs = tuple(vals)

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def monic(self) -> "Poly":
        if self.is_zero() or self.leading() == 1:
            return self
        s = self.ctx.inv(self.leading())
        return Poly(self.ctx, [self.ctx.mul(s, c) for c in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        k = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly(k, [k.add(x, y) for x, y in zip(a, b)])

    def __sub__(self, other: "Poly") -> "Poly":
        k = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return Poly(k, [k.sub(x, y) for x, y in zip(a, b)])

    def __mul__(self, other: "Poly") -> "Poly":
        k = self.ctx
        if self.is_zero() or other.is_zero():
            return Poly(k, [])
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] = k.add(out[i + j], k.mul(a, b))
        return Poly(k, out)

    def scale(self, s: int) -> "Poly":
        k = self.ctx
        return Poly(k, [k.mul(s, c) for c in self.coeffs])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        k = self.ctx
        rem = list(self.coeffs)
        dn = other.degree
        inv_lead = k.inv(other.leading())
        quot = [0] * max(len(rem) - dn, 0)
        while len(rem) - 1 >= dn and rem:
            if rem[-1]:
                q = k.mul(rem[-1], inv_lead)
                shift = len(rem) - 1 - dn
                quot[shift] = q
                for i, c in enumerate(other.coeffs):
                    rem[shift + i] = k.sub(rem[shift + i], k.mul(q, c))
            rem.pop()
        return Poly(k, quot), Poly(k, rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def pow_mod(self, n: int, mod: "Poly") -> "Poly":
        out = Poly(self.ctx, [1])
        base = self % mod
        while n:
            if n & 1:
                out = (out * base) % mod
            base = (base * base) % mod
            n >>= 1
        return out

    def derivative(self) -> "Poly":
        k = self.ctx
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(k.mul(self.coeffs[i], k.scalar_from_int(i)))
        return Poly(k, out)

    def eval(self, a: int) -> int:
        k = self.ctx
        acc = 0
        for c in reversed(self.coeffs):
            acc = k.add(k.mul(acc, a), c)
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly) and self.ctx == other.ctx and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def __repr__(self) -> str:
        if self.ctx.degree == 1:
            return poly_str(self.coeffs)
        names = {v: repr(FieldElem(self.ctx, v)) for v in set(self.coeffs)}
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = names[c]
            cs = f"({cs})" if "+" in cs else cs
            if i == 0:
                terms.append(cs)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{cs}{xs}")
        return " + ".join(reversed(terms)) if terms else "0"


def _berlekamp_squarefree(f: Poly) -> list[Poly]:
    """Irreducible factors of a squarefree monic f (Berlekamp over GF(q))."""
    from .linalg import _nullspace_arr  # linalg imports fieldcore

    k = f.ctx
    n = f.degree
    if n <= 1:
        return [f]
    q = k.order
    # Q[i] = x^(i*q) mod f as coefficient row
    rows = []
    xq = Poly.x(k).pow_mod(q, f)
    power = Poly(k, [1])
    for i in range(n):
        row = list(power.coeffs) + [0] * (n - len(power.coeffs))
        row[i] = k.sub(row[i], 1)  # Q - I
        rows.append(row)
        power = (power * xq) % f
    kernel = _nullspace_arr(k, np.array(rows, dtype=k.dtype).T).tolist()
    if len(kernel) == 1:
        return [f]
    factors = [f]
    for vec in kernel:
        v = Poly(k, vec)
        if v.degree < 1:
            continue  # the constant kernel vector never splits anything
        next_factors = []
        for g in factors:
            if g.degree <= 1:
                next_factors.append(g)
                continue
            pieces = []
            rem = g
            for s in range(q):
                d = rem.gcd(v - Poly(k, [s]))
                if 0 < d.degree < rem.degree:
                    pieces.append(d)
                    rem = rem.divmod(d)[0]
                if rem.degree == 0:
                    break
            if rem.degree > 0:
                pieces.append(rem)
            next_factors.extend(pieces)
        factors = next_factors
        if len(factors) == len(kernel):
            break
    return [g.monic() for g in factors]


def _squarefree_parts(g: Poly, power: int, out: list[tuple[Poly, int]]) -> None:
    """Append (squarefree piece, multiplicity) pairs of g, scaled by power."""
    if g.degree <= 0:
        return
    k = g.ctx
    d = g.derivative()
    if d.is_zero():
        p = k.char
        hc = [k.pow(g.coeffs[i], k.order // p) for i in range(0, len(g.coeffs), p)]
        _squarefree_parts(Poly(k, hc), power * p, out)
        return
    w = g.gcd(d)
    s = g.divmod(w)[0]  # squarefree
    i = power
    while s.degree > 0:
        y = w.gcd(s)
        piece = s.divmod(y)[0]  # factors of exact multiplicity i (times power)
        if piece.degree > 0:
            out.append((piece, i))
        s = y
        if not w.is_zero():
            w = w.divmod(y)[0]
        i += power
    if w.degree > 0:
        _squarefree_parts(w, power, out)


def poly_factor(f: Poly) -> list[tuple[Poly, int]]:
    """Factor f into monic irreducibles with exponents.

    The product of the factors (with exponents) times the leading coefficient
    re-multiplies to f exactly.  Output is sorted by (degree, coefficients)
    so downstream tie-breaking is deterministic.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    k = f.ctx
    # char-p squarefree decomposition; Berlekamp splits each piece
    pieces: list[tuple[Poly, int]] = []
    _squarefree_parts(f.monic(), 1, pieces)
    found: dict[tuple, int] = {}
    for piece, mult in pieces:
        for irr in _berlekamp_squarefree(piece):
            found[irr.coeffs] = found.get(irr.coeffs, 0) + mult

    result = [(Poly(k, c), m) for c, m in found.items()]
    result.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    # exactness guard: re-multiply and compare
    prod = Poly(k, [f.leading()])
    for g, m in result:
        for _ in range(m):
            prod = prod * g
    if prod != f:
        raise AssertionError("factorization failed to re-multiply to the input")
    return result


def factors_roots_first(f: Poly) -> Iterator[Poly]:
    """The distinct monic irreducible factors of f, lazily, in poly_factor's order.

    The linear factors x - a come first, from the roots a of f found by
    evaluating f at every field element (vectorized Horner through the
    tables), sorted by coefficients as poly_factor sorts them.  poly_factor
    runs only when a caller reads past them, for the factors of degree >= 2.
    """
    if f.is_zero():
        raise ZeroPolynomial("cannot factor the zero polynomial")
    k = f.ctx
    xs = np.arange(k.order)
    acc = np.zeros(k.order, dtype=np.intp)
    for c in reversed(f.coeffs):
        acc = k.ADD[k.MUL[acc, xs], c]
    for c0 in sorted(int(k.NEG[a]) for a in np.flatnonzero(acc == 0)):
        yield Poly(k, [c0, 1])
    yield from (g for g, _ in poly_factor(f) if g.degree >= 2)
