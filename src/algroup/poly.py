"""Sparse multivariate polynomials over an ordered variable ring.

A monomial is a tuple of exponents, one per ring variable, and a
polynomial is a map from monomials to nonzero coefficients.  Ring
variables are stored most-significant-first, so the ring's own variable
order doubles as the ranking of the one supported monomial order,
degrevlex.
"""

from __future__ import annotations

from operator import add as _iadd

from .fields import Field

Monomial = tuple  # tuple[int, ...], one exponent per ring variable

# Total degrees past this bound abort rather than wrap or crawl.
DEGREE_LIMIT = 2**31


def _degrevlex_key(m: Monomial):
    """Key under which ascending sort equals ascending degrevlex order."""
    return (sum(m), tuple(-e for e in reversed(m)))


class VarRing:
    """Named variables over a coefficient field, most significant first."""

    __slots__ = ("names", "field", "n", "_index")

    def __init__(self, names, field: Field, n: int | None = None):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.field = field
        self.n = n
        self._index = {name: i for i, name in enumerate(names)}

    @classmethod
    def matrix_ring(cls, n: int, field: Field, *, x0: bool = False,
                    y: bool = False, y0: bool = False, t: bool = False) -> "VarRing":
        """Variables for an n-by-n generic matrix problem.

        Order of significance: t, then the y block (y1..y_{n*n}, y0),
        then the x block (x1..x_{n*n}), with x0 last.
        """
        if n < 1:
            raise ValueError("matrix dimension must be at least 1")
        if y0 and not y:
            raise ValueError("y0 requires the y block")
        names: list[str] = []
        if t:
            names.append("t")
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

    def sort_key(self):
        """Sort key of the monomial order, degrevlex."""
        return _degrevlex_key

    def var(self, name: str) -> "Polynomial":
        exps = [0] * self.arity
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): self.field.one()}, _normalized=True)

    def const(self, value) -> "Polynomial":
        v = self.field.coerce(value)
        if not v:
            return Polynomial(self, {}, _normalized=True)
        return Polynomial(self, {(0,) * self.arity: v}, _normalized=True)

    def from_int(self, k: int) -> "Polynomial":
        return self.const(self.field.from_int(k))

    def zero(self) -> "Polynomial":
        return Polynomial(self, {}, _normalized=True)

    def one(self) -> "Polynomial":
        return self.const(1)

    def __eq__(self, other) -> bool:
        return (isinstance(other, VarRing) and other.names == self.names
                and other.field == self.field)

    def __hash__(self) -> int:
        return hash((self.names, self.field))

    def __repr__(self) -> str:
        return f"VarRing({', '.join(self.names)}; {self.field!r})"


class Polynomial:
    """Immutable sparse polynomial: ring plus {monomial: coefficient}."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: VarRing, terms: dict, *, _normalized: bool = False):
        self.ring = ring
        if _normalized:
            self.terms = terms
        else:
            self.terms = {m: c for m, c in terms.items() if c}

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
        field = self.ring.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            prev = out.get(m)
            if prev is None:
                out[m] = c
            else:
                v = field.add(prev, c)
                if v:
                    out[m] = v
                else:
                    del out[m]
        return Polynomial(self.ring, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()},
                          _normalized=True)

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
        if not self.terms or not other.terms:
            return self.ring.zero()
        if self.total_degree() + other.total_degree() > DEGREE_LIMIT:
            raise OverflowError("polynomial degree exceeds the supported limit")
        field = self.ring.field
        fmul, fadd = field.mul, field.add
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(map(_iadd, m1, m2))
                prev = out.get(m)
                if prev is None:
                    out[m] = fmul(c1, c2)
                else:
                    v = fadd(prev, fmul(c1, c2))
                    if v:
                        out[m] = v
                    else:
                        del out[m]
        return Polynomial(self.ring, out, _normalized=True)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        if e * max(self.total_degree(), 1) > DEGREE_LIMIT:
            raise OverflowError("polynomial degree exceeds the supported limit")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def total_degree(self) -> int:
        """Largest term degree; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(map(sum, self.terms))

    @property
    def is_constant(self) -> bool:
        if not self.terms:
            return True
        return len(self.terms) == 1 and not any(next(iter(self.terms)))

    def leading(self):
        """(monomial, coefficient) of the leading term; None if zero."""
        if not self.terms:
            return None
        m = max(self.terms, key=self.ring.sort_key())
        return m, self.terms[m]

    def evaluate(self, point):
        """Exact value at a point given in ring variable order."""
        if len(point) != self.ring.arity:
            raise ValueError(f"expected {self.ring.arity} values, got {len(point)}")
        field = self.ring.field
        values = [field.coerce(v) for v in point]
        fmul, fadd, fpow = field.mul, field.add, field.pow
        acc = field.zero()
        powers: dict = {}
        for m, c in self.terms.items():
            term = c
            for i, e in enumerate(m):
                if e:
                    key = (i, e)
                    v = powers.get(key)
                    if v is None:
                        v = fpow(values[i], e)
                        powers[key] = v
                    term = fmul(term, v)
            acc = fadd(acc, term)
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
        power_cache: dict = {}
        out = target.zero()
        for m, c in self.terms.items():
            term = target.const(c)
            for i, e in enumerate(m):
                if not e:
                    continue
                name = names[i]
                if name not in images:
                    raise ValueError(f"no substitution image for variable {name}")
                key = (name, e)
                p = power_cache.get(key)
                if p is None:
                    p = images[name] ** e
                    power_cache[key] = p
                term = term * p
            out = out + term
        return out

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"<poly {render(self)}>"


def change_ring(f: Polynomial, target: VarRing, rename=None) -> Polynomial:
    """Re-index f into target, matching variables by name; rename, when
    given, maps a variable name of f to its name in target."""
    if target == f.ring and rename is None:
        return f
    if target.field != f.ring.field:
        raise ValueError("target ring has a different coefficient field")
    src_names = f.ring.names
    mapping: dict[int, int] = {}
    out: dict = {}
    arity = target.arity
    for m, c in f.terms.items():
        exps = [0] * arity
        for i, e in enumerate(m):
            if not e:
                continue
            j = mapping.get(i)
            if j is None:
                name = src_names[i]
                j = target.index(rename(name) if rename else name)
                mapping[i] = j
            exps[j] = e
        out[tuple(exps)] = c
    return Polynomial(target, out, _normalized=True)


def render(f: Polynomial) -> str:
    """Canonical text form: descending terms, explicit '*', '^' powers."""
    if not f.terms:
        return "0"
    ring = f.ring
    names = ring.names
    key = ring.sort_key()
    parts: list[str] = []
    for m in sorted(f.terms, key=key, reverse=True):
        c = f.terms[m]
        factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                   for i, e in enumerate(m) if e]
        cs = ring.field.to_str(c)
        negative = cs.startswith("-")
        mag = cs[1:] if negative else cs
        if factors and mag == "1":
            body = "*".join(factors)
        elif factors:
            body = "*".join([mag] + factors)
        else:
            body = mag
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(parts)
