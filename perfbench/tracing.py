"""Spans around the public functions of each `algroup` layer.

The wrappers are installed from outside the program, on every module
attribute through which a call is looked up: `decide` imports
`buchberger` with `from ... import`, so both `algroup.decide.buchberger`
and `algroup.groebner.buchberger` are wrapped, and a call passes through
exactly one wrapper.  Spans are kept in memory; self time is a span's
duration minus the durations of its child spans, which run one after
another.

`fields` arithmetic runs inside the `groebner`, `matrices` and `poly`
spans and is not wrapped: per-operation spans would dominate the run.
"""

from __future__ import annotations

import functools
import itertools
import time

# Span record fields.
NAME, START, END, PARENT, DECISION, ERROR, SIZE, IDX = range(8)

MATRICES = ("det_poly", "adjugate", "eval_at_formal_inverse", "make_k",
            "subst_product", "subst_x_times_inverse_y", "to_y_block",
            "build_f0", "build_hat_ideal")
DECIDE = ("is_group", "is_group_alt", "check_identity", "check_inversion",
          "check_inversion_alt", "check_multiplication", "check_division",
          "variety_equals_vstar", "add_field_equations", "new_report")
GROEBNER = ("buchberger", "contains_one", "radical_membership", "normal_form")


def _poly_terms(value) -> int:
    """Terms in the polynomials a `matrices` function returned."""
    if hasattr(value, "terms"):
        return len(value.terms)
    if hasattr(value, "numerator"):
        return len(value.numerator.terms)
    if isinstance(value, tuple):  # build_hat_ideal: (ring, generators)
        return sum(len(g.terms) for g in value[1])
    return sum(_poly_terms(v) for v in value)  # adjugate rows, entries


def _basis_stats(gb) -> tuple:
    return (gb.stats.pairs_processed, gb.stats.reductions_to_zero,
            len(gb.basis))


class Tracer:
    """Records spans while installed; `install` and `uninstall` swap the
    wrappers in and out so that untraced decisions run the plain code."""

    def __init__(self, algroup_modules: dict):
        self._done: list = []
        self._stack: list = []
        self._counter = itertools.count()
        self.decision = -1
        self._saved: list = []
        self._targets = self._plan(algroup_modules)

    @staticmethod
    def _plan(m: dict) -> list:
        targets = [(m["cli"], "main", "cli.main", None),
                   (m["cli"], "load_problem", "parsing.load_problem", None),
                   (m["poly"].Polynomial, "__str__", "poly.render", len)]
        for mod in ("decide", "groebner", "matrices", "poly"):
            if hasattr(m[mod], "change_ring"):
                targets.append((m[mod], "change_ring", "poly.change_ring", None))
        for name in DECIDE:
            targets.append((m["decide"], name, f"decide.{name}", None))
        for mod in ("decide", "matrices"):
            for name in MATRICES:
                if hasattr(m[mod], name):
                    targets.append((m[mod], name, f"matrices.{name}",
                                    _poly_terms))
        for mod in ("decide", "groebner"):
            for name in GROEBNER:
                if hasattr(m[mod], name):
                    measure = _basis_stats if name == "buchberger" else None
                    targets.append((m[mod], name, f"groebner.{name}", measure))
        return targets

    def _wrap(self, name: str, fn, measure):
        spans, stack, clock = self._done, self._stack, time.perf_counter
        counter = self._counter

        # The clock is read before anything is allocated on entry and
        # right after the call returns, so that a garbage collection the
        # wrapper triggers falls outside the span.  Finished spans are
        # tuples of atomic values, which the collector stops tracking.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            idx = next(counter)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans.append((name, start, end, parent, self.decision,
                              type(exc).__name__, None, idx))
                raise
            end = clock()
            stack.pop()
            spans.append((name, start, end, parent, self.decision, None,
                          None if measure is None else measure(out), idx))
            return out

        return traced

    @property
    def spans(self) -> list:
        """Finished spans in the order they started; a span's index in
        this list is its id, which PARENT refers to."""
        return sorted(self._done, key=lambda s: s[IDX])

    def install(self) -> None:
        for owner, attr, name, measure in self._targets:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, measure))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list) -> list[float]:
    """Self time of every span: its duration minus its children's."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def check_decisions(spans: list, walls: dict, rel: float, abs_s: float) -> list:
    """Per traced decision, the self times of its spans must add up to
    the decision's wall time within rel * wall + abs_s, and no self time
    may be negative.  Returns one message per violation."""
    selfs = self_times(spans)
    total: dict = {}
    roots: dict = {}
    problems = []
    for s, st in zip(spans, selfs):
        d = s[DECISION]
        total[d] = total.get(d, 0.0) + st
        if s[PARENT] < 0:
            roots[d] = roots.get(d, 0) + 1
        if st < -abs_s:
            problems.append(f"decision {d}: span {s[NAME]} has self time {st:.6f}s")
    for d, wall in walls.items():
        if roots.get(d) != 1:
            problems.append(f"decision {d}: {roots.get(d, 0)} root spans")
        elif abs(total[d] - wall) > rel * wall + abs_s:
            problems.append(f"decision {d}: spans cover {total[d]:.6f}s "
                            f"of {wall:.6f}s")
    return problems


def layer_metrics(spans: list, decisions: int, exact: set) -> dict:
    """Per-layer metrics.  Times are self seconds per traced decision;
    counts are summed over the decisions in `exact`, which a run of the
    same seed always repeats, so they must repeat exactly."""
    selfs = self_times(spans)
    by_name: dict = {}
    for s, st in zip(spans, selfs):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + st

    def per_decision(*names):
        return sum(by_name.get(n, 0.0) for n in names) / decisions

    def layer(prefix):
        return sum(v for k, v in by_name.items()
                   if k.startswith(prefix)) / decisions

    pairs = zero = basis_max = bb_calls = m_calls = terms = chars = 0
    radical_calls = radical_nf = budget = 0
    radical_t = 0.0
    escalated = set()
    for s in spans:
        parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
        if s[NAME] == "groebner.contains_one" and parent is not None \
                and parent[NAME] == "groebner.radical_membership":
            radical_t += s[END] - s[START]
            escalated.add(s[PARENT])
        if s[ERROR] == "BudgetExhausted" and s[NAME].startswith("groebner.") \
                and (parent is None or not parent[NAME].startswith("groebner.")):
            budget += 1
    for idx, s in enumerate(spans):
        if s[DECISION] not in exact:
            continue
        name = s[NAME]
        if name == "groebner.buchberger":
            bb_calls += 1
            if s[SIZE] is not None:
                pairs += s[SIZE][0]
                zero += s[SIZE][1]
                basis_max = max(basis_max, s[SIZE][2])
        elif name.startswith("matrices."):
            m_calls += 1
            terms += s[SIZE] or 0
        elif name == "poly.render":
            chars += s[SIZE] or 0
        elif name == "groebner.radical_membership":
            radical_calls += 1
            if s[ERROR] is None and idx not in escalated:
                radical_nf += 1

    s_, n_ = "s", "count"
    return {
        "cli.self_s": (per_decision("cli.main"), s_),
        "parsing.parse_s": (per_decision("parsing.load_problem"), s_),
        "decide.self_s": (layer("decide."), s_),
        "matrices.det_s": (per_decision("matrices.det_poly"), s_),
        "matrices.adjugate_s": (per_decision("matrices.adjugate"), s_),
        "matrices.formal_inverse_s": (
            per_decision("matrices.eval_at_formal_inverse"), s_),
        "matrices.make_k_s": (per_decision("matrices.make_k"), s_),
        "matrices.subst_s": (per_decision(
            "matrices.subst_product", "matrices.subst_x_times_inverse_y",
            "matrices.to_y_block"), s_),
        "matrices.witness_s": (per_decision(
            "matrices.build_f0", "matrices.build_hat_ideal"), s_),
        "matrices.calls": (m_calls, n_),
        "matrices.terms_out": (terms, n_),
        "poly.render_s": (per_decision("poly.render"), s_),
        "poly.render_chars": (chars, n_),
        "poly.change_ring_s": (per_decision("poly.change_ring"), s_),
        "groebner.buchberger_s": (per_decision("groebner.buchberger"), s_),
        "groebner.buchberger_calls": (bb_calls, n_),
        "groebner.pairs": (pairs, n_),
        "groebner.zero_reductions": (zero, n_),
        "groebner.useful_pair_ratio": (1 - zero / pairs if pairs else 1.0,
                                       "ratio"),
        "groebner.basis_len_max": (basis_max, n_),
        "groebner.normal_form_s": (per_decision("groebner.normal_form"), s_),
        "groebner.radical_calls": (radical_calls, n_),
        "groebner.radical_nf_frac": (
            radical_nf / radical_calls if radical_calls else 0.0, "ratio"),
        "groebner.radical_t_s": (radical_t / decisions, s_),
        "groebner.budget_exhausted": (budget, n_),
    }
