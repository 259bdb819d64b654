"""Integer polynomials in matrix-entry variables, for writing inputs.

A polynomial is a dict from exponent tuples (one exponent per entry
x1 .. x{n*n}, row major) to nonzero int coefficients.  This covers only
what input generation needs: sums, products, powers, linear substitution
and rendering in the `.alg` syntax.  It is kept apart from `algroup.poly`
so that the program under test receives text the benchmark built on its
own.
"""

from __future__ import annotations


def var(n: int, i: int, j: int) -> dict:
    """Matrix entry (i, j), both 0-based, of the generic n-by-n block."""
    exps = [0] * (n * n)
    exps[i * n + j] = 1
    return {tuple(exps): 1}


def const(n: int, c: int) -> dict:
    return {(0,) * (n * n): c} if c else {}


def add(*polys: dict) -> dict:
    out: dict = {}
    for p in polys:
        for m, c in p.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def scale(p: dict, c: int) -> dict:
    return {m: c * v for m, v in p.items()} if c else {}


def sub(a: dict, b: dict) -> dict:
    return add(a, scale(b, -1))


def mul(*polys: dict) -> dict:
    acc = polys[0]
    for p in polys[1:]:
        out: dict = {}
        for m1, c1 in acc.items():
            for m2, c2 in p.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        acc = out
    return acc


def power(p: dict, e: int, n: int) -> dict:
    out = const(n, 1)
    for _ in range(e):
        out = mul(out, p)
    return out


def substitute(f: dict, images: list, n: int) -> dict:
    """f with variable k replaced by images[k]."""
    out: dict = {}
    for m, c in f.items():
        term = const(n, c)
        for k, e in enumerate(m):
            if e:
                term = mul(term, power(images[k], e, n))
        out = add(out, term)
    return out


def render(f: dict) -> str:
    """The polynomial in `.alg` expression syntax, terms in a fixed order."""
    if not f:
        return "0"
    parts = []
    for m in sorted(f, key=lambda m: (sum(m), m), reverse=True):
        c = f[m]
        factors = [f"x{k + 1}^{e}" if e > 1 else f"x{k + 1}"
                   for k, e in enumerate(m) if e]
        mag = abs(c)
        if factors and mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


def problem_text(n: int, field: str, gens: list) -> str:
    """A whole `.alg` file; field is "Q" or "F <p>"."""
    lines = [f"n {n}", f"field {field}"]
    lines.extend(render(g) for g in gens if g)
    return "\n".join(lines) + "\n"
