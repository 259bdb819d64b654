"""Sparse multivariate polynomials over an ordered variable ring.

A monomial is one packed integer, from the parser to the Groebner
engine: the exponent of ring variable i sits at bits [16*i, 16*i + 16)
and the total degree in the field above all variables, so a product of
monomials is an integer sum and the total degree a shift.  The ring's
`codec` holds these operations and the integer degrevlex key.  Ring
variables are stored most-significant-first, so the ring's own variable
order doubles as the ranking of the one supported monomial order,
degrevlex.  A polynomial maps packed monomials to nonzero coefficients in
the canonical form of its field (see `fields`).

Exponent tuples appear only at the boundary: the constructor packs
them and `Polynomial.exponents` unpacks.  Total degrees are bounded by
MAX_ENGINE_DEGREE, so that three packed monomials may be summed without
a field overflowing; a product or power past it raises OverflowError.
"""

from __future__ import annotations

from functools import cache

from .fields import Field

_BITS = 16
_FIELD_MASK = 0xFFFF
_FIELD_CAP = 0x7FFF
MAX_ENGINE_DEGREE = _FIELD_CAP // 3  # three packed monomials may be summed


def _degree_error(degree: int) -> OverflowError:
    return OverflowError(f"polynomial degree exceeds the supported limit: "
                         f"{degree} > {MAX_ENGINE_DEGREE}")


@cache  # rings of one arity share one codec, and one set of masks
class _Codec:
    """Arithmetic on the packed monomials of a ring of `arity` variables."""

    __slots__ = ("arity", "deg_shift", "guard", "low_mask", "low_guard",
                 "_offs")

    def __init__(self, arity: int):
        self.arity = arity
        self.deg_shift = _BITS * arity
        self.guard = 0
        offs = 0
        for i in range(arity + 1):
            self.guard |= 1 << (_BITS * i + _BITS - 1)
        for i in range(arity):
            offs |= _FIELD_CAP << (_BITS * i)
        self.low_mask = (1 << self.deg_shift) - 1
        self.low_guard = self.guard & self.low_mask
        self._offs = offs

    def pack(self, exps) -> int:
        """The packed monomial of an exponent tuple."""
        if len(exps) != self.arity or min(exps, default=0) < 0:
            raise ValueError(f"expected {self.arity} non-negative exponents, "
                             f"got {exps!r}")
        degree = sum(exps)
        if degree > _FIELD_CAP:
            raise _degree_error(degree)
        packed = degree << self.deg_shift
        for i, e in enumerate(exps):
            packed |= e << (_BITS * i)
        return packed

    def unpack(self, packed: int) -> tuple:
        """The exponent tuple of a packed monomial."""
        return tuple((packed >> (_BITS * i)) & _FIELD_CAP
                     for i in range(self.arity))

    def factors(self, packed: int) -> list[tuple[int, int]]:
        """(variable index, exponent) for every variable of the monomial,
        in ascending index order, without the degree field.

        The loop visits only the nonzero exponent fields: the lowest set
        bit of what is left lies in the next one, so its cost follows the
        variables the monomial holds, not the width of the ring."""
        out = []
        rest = packed & self.low_mask
        while rest:
            # The start bit of the field that holds the lowest set bit.
            shift = ((rest & -rest).bit_length() - 1) & -_BITS
            e = (rest >> shift) & _FIELD_MASK
            out.append((shift // _BITS, e))
            rest ^= e << shift
        return out

    def degree(self, packed: int) -> int:
        return packed >> self.deg_shift

    def support_mask(self, packed: int) -> int:
        """Every bit of the exponent field of each variable of the
        monomial; a monomial m has no variable outside it exactly when
        m & low_mask & ~mask is 0."""
        mask = 0
        for i, _ in self.factors(packed):
            mask |= _FIELD_MASK << (_BITS * i)
        return mask

    def divides(self, a: int, b: int) -> bool:
        return ((b | self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        # Per field, (a_i | 0x8000) - b_i keeps bit 15 exactly when
        # a_i >= b_i and never borrows from the next field; spreading
        # that bit over the field selects the larger exponent.  The
        # degree field of a is left out by the low masks.
        b &= self.low_mask
        larger = ((((a | self.guard) - b) & self.low_guard)
                  >> (_BITS - 1)) * _FIELD_CAP
        m = b ^ ((a ^ b) & larger)
        # The fields sum to the degree, and 2^16 = 1 mod 0xFFFF; the
        # remainder is exact because an lcm of two monomials of degree at
        # most MAX_ENGINE_DEGREE has degree at most 2 * MAX_ENGINE_DEGREE,
        # below 0xFFFF.
        return m | (m % 0xFFFF) << self.deg_shift

    def key(self, packed: int) -> int:
        """Integer key: ascending key order equals ascending degrevlex."""
        # Complementing every field reverses the tie-break exactly as
        # degrevlex requires when variable 0 is the most significant.
        return (packed >> self.deg_shift << self.deg_shift) \
            + self._offs - (packed & self.low_mask)


class VarRing:
    """Named variables over a coefficient field, most significant first."""

    __slots__ = ("names", "field", "n", "codec", "_index")

    def __init__(self, names, field: Field, n: int | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.field = field
        self.n = n
        self.codec = _Codec(len(names))
        self._index = {name: i for i, name in enumerate(names)}

    @classmethod
    def matrix_ring(cls, n: int, field: Field, *, x0: bool = False,
                    y: bool = False, y0: bool = False) -> "VarRing":
        """Variables for an n-by-n generic matrix problem.

        Order of significance: the y block (y1..y_{n*n}, y0), then the x
        block (x1..x_{n*n}), with x0 last.
        """
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        if y0 and not y:
            raise ValueError("y0 requires the y block")
        names: list[str] = []
        if y:
            names.extend(f"y{k}" for k in range(1, n * n + 1))
        if y0:
            names.append("y0")
        names.extend(f"x{k}" for k in range(1, n * n + 1))
        if x0:
            names.append("x0")
        return cls(names, field, n=n)

    def extend_front(self, *new_names: str) -> "VarRing":
        for name in new_names:
            if name in self._index:
                raise ValueError(f"ring already has variable {name}")
        return VarRing(new_names + self.names, self.field, n=self.n)

    @property
    def arity(self) -> int:
        return len(self.names)

    def has(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"ring has no variable {name}") from None

    def var(self, name: str) -> "Polynomial":
        packed = (1 << (_BITS * self.index(name))) | (1 << self.codec.deg_shift)
        return Polynomial._make(self, {packed: 1})

    def const(self, value) -> "Polynomial":
        v = self.field.canonical(value)
        return Polynomial._make(self, {0: v} if v else {})

    def zero(self) -> "Polynomial":
        return Polynomial._make(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, VarRing)
                                 and other.names == self.names
                                 and other.field == self.field)

    def __hash__(self) -> int:
        return hash((self.names, self.field))

    def __repr__(self) -> str:
        return f"VarRing({', '.join(self.names)}; {self.field!r})"


class Polynomial:
    """Immutable sparse polynomial: ring plus {packed monomial:
    coefficient}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: VarRing, terms: dict):
        """The polynomial of {exponent tuple: coefficient}, zeros dropped."""
        pack, canonical = ring.codec.pack, ring.field.canonical
        out = {}
        for exps, c in terms.items():
            c = canonical(c)
            if c:
                out[pack(exps)] = c
        if out and max(out) >> ring.codec.deg_shift > MAX_ENGINE_DEGREE:
            raise _degree_error(max(out) >> ring.codec.deg_shift)
        self.ring = ring
        self.terms = out

    @classmethod
    def _make(cls, ring: VarRing, terms: dict) -> "Polynomial":
        """The polynomial of packed terms with nonzero canonical values."""
        poly = cls.__new__(cls)
        poly.ring = ring
        poly.terms = terms
        return poly

    def exponents(self) -> dict:
        """{exponent tuple: coefficient}, the inverse of the constructor."""
        unpack = self.ring.codec.unpack
        return {unpack(m): c for m, c in self.terms.items()}

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        if isinstance(other, int):
            return self.ring.const(other)
        return NotImplemented

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.const(other)
        return (isinstance(other, Polynomial) and other.ring == self.ring
                and other.terms == self.terms)

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        canonical = self.ring.field.canonical
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            if prev is None:
                out[m] = c
            else:
                v = canonical(prev + c)
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Polynomial._make(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        canonical = self.ring.field.canonical
        return Polynomial._make(self.ring, {m: canonical(-c)
                                            for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._make(self.ring, _mul_terms(self.terms, other.terms,
                                                      self.ring))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        return Polynomial._make(self.ring, _pow_terms(self.terms, e, self.ring))

    def total_degree(self) -> int:
        """Largest term degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(self.terms) >> self.ring.codec.deg_shift

    @property
    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def leading(self):
        """(packed monomial, coefficient) of the leading term, or None."""
        if not self.terms:
            return None
        m = max(self.terms, key=self.ring.codec.key)
        return m, self.terms[m]

    def evaluate(self, point):
        """Exact value at a point given in ring variable order."""
        if len(point) != self.ring.arity:
            raise ValueError(f"expected {self.ring.arity} values, got {len(point)}")
        canonical = self.ring.field.canonical
        values = [canonical(v) for v in point]
        factors = self.ring.codec.factors
        acc = 0
        powers: dict = {}
        for m, c in self.terms.items():
            term = c
            for key in factors(m):
                v = powers.get(key)
                if v is None:
                    v = canonical(values[key[0]] ** key[1])
                    powers[key] = v
                term = canonical(term * v)
            acc = canonical(acc + term)
        return acc

    def substitute(self, images: dict, target: VarRing | None = None) -> "Polynomial":
        """Map each variable to its image polynomial, homomorphically.

        Every variable occurring in self must have an image; all images
        must live in one common target ring.
        """
        if target is None:
            for img in images.values():
                target = img.ring
                break
            else:
                target = self.ring
        if target.field != self.ring.field:
            raise ValueError("substitution must preserve the coefficient field")
        for name, img in images.items():
            if img.ring != target:
                raise ValueError(f"image of {name} lives in a different ring")
        names = self.ring.names
        factors = self.ring.codec.factors
        power_cache: dict = {}
        out = target.zero()
        for m, c in self.terms.items():
            term = target.const(c)
            for key in factors(m):
                p = power_cache.get(key)
                if p is None:
                    name = names[key[0]]
                    if name not in images:
                        raise ValueError(f"no substitution image for variable {name}")
                    p = images[name] ** key[1]
                    power_cache[key] = p
                term = term * p
            out = out + term
        return out

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"<poly {render(self)}>"


def _mul_terms(a: dict, b: dict, ring: VarRing) -> dict:
    """The terms of the product of the term dicts a and b of ring: the
    one polynomial multiplication, for `Polynomial` and the parser."""
    if not a or not b:
        return {}
    shift = ring.codec.deg_shift
    degree = (max(a) >> shift) + (max(b) >> shift)
    if degree > MAX_ENGINE_DEGREE:
        raise _degree_error(degree)
    outer, inner = a, b
    if len(outer) < len(inner):
        outer, inner = inner, outer
    canonical = ring.field.canonical
    if len(inner) == 1:
        # A term times a polynomial: distinct monomials stay distinct
        # and products of nonzero values are nonzero.
        ((m2, c2),) = inner.items()
        return {m + m2: canonical(c * c2) for m, c in outer.items()}
    # Accumulate raw sums of products and bring each one to canonical
    # form once, at the end.
    inner = list(inner.items())
    out: dict = {}
    get = out.get
    for m1, c1 in outer.items():
        for m2, c2 in inner:
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: v for m, c in out.items() if (v := canonical(c))}


def _pow_terms(terms: dict, e: int, ring: VarRing) -> dict:
    """The terms of the e-th power of the term dict terms of ring, for
    an int e >= 0, by repeated squaring."""
    # A constant counts as degree 1, so that its powers stay small.
    degree = max(max(terms, default=0) >> ring.codec.deg_shift, 1)
    if e * degree > MAX_ENGINE_DEGREE:
        raise _degree_error(e * degree)
    if not e:
        return {0: 1}
    result = None
    while True:
        if e & 1:
            result = terms if result is None else _mul_terms(result, terms,
                                                              ring)
        e >>= 1
        if not e:
            return result
        terms = _mul_terms(terms, terms, ring)


def change_ring(f: Polynomial, target: VarRing) -> Polynomial:
    """Re-index f into target, matching variables by name; ValueError
    when target lacks a variable of f or has another field."""
    if target == f.ring:
        return f
    if target.field != f.ring.field:
        raise ValueError("target ring has a different coefficient field")
    # Each variable of f moves its field by a fixed shift; variables that
    # move by the same shift move together, under one mask.
    used = 0
    for m in f.terms:
        used |= m
    names = f.ring.names
    moves: dict[int, int] = {}
    for i, _ in f.ring.codec.factors(used):
        shift = _BITS * (target.index(names[i]) - i)
        moves[shift] = moves.get(shift, 0) | _FIELD_MASK << (_BITS * i)
    src_shift, dst_shift = f.ring.codec.deg_shift, target.codec.deg_shift
    out = {}
    for m, c in f.terms.items():
        packed = m >> src_shift << dst_shift
        for shift, mask in moves.items():
            packed |= (m & mask) << shift if shift >= 0 \
                else (m & mask) >> -shift
        out[packed] = c
    return Polynomial._make(target, out)


def render(f: Polynomial) -> str:
    """Canonical text form: descending terms, explicit '*', '^' powers."""
    if not f.terms:
        return "0"
    ring = f.ring
    names = ring.names
    factors = ring.codec.factors
    parts: list[str] = []
    for m in sorted(f.terms, key=ring.codec.key, reverse=True):
        c = f.terms[m]
        powers = [f"{names[i]}^{e}" if e > 1 else names[i]
                  for i, e in factors(m)]
        cs = str(c)
        negative = cs.startswith("-")
        mag = cs[1:] if negative else cs
        if powers and mag == "1":
            body = "*".join(powers)
        elif powers:
            body = "*".join([mag] + powers)
        else:
            body = mag
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)
