"""Outside-in layer tracing for pfansatz.

`install()` wraps the public functions of each pfansatz layer and rebinds
every module attribute (and every module-level dict value) that holds one,
so a call is timed whichever import path reaches it.  The program's own
files are not changed.

Spans are aggregated as they close, per span name: call count and self
time (span duration minus the time its child spans cover), plus the
counters an `observe` hook reads from the arguments and the result.
Individual spans are not kept: `poly.eval` alone closes ~10^5 spans per
job.  Time spent in an `observe` hook is excluded from every span.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import time
from fractions import Fraction


def bits(value) -> int:
    """Bit size of an exact entry: numerator plus denominator bits, the
    largest coefficient for a polynomial, the larger side of a quotient."""
    if isinstance(value, (int, Fraction)):
        return value.numerator.bit_length() + value.denominator.bit_length()
    terms = getattr(value, "terms", None)
    if isinstance(terms, dict):
        return max((bits(c) for c in terms.values()), default=0)
    return max(bits(value.num), bits(value.den))


def _cells(matrix) -> int:
    rows = getattr(matrix, "entries", matrix)
    return len(rows) * len(rows[0]) if len(rows) else 0


def _bump(extra: dict, key: str, amount) -> None:
    extra[key] = extra.get(key, 0) + amount


def _raise_to(extra: dict, key: str, value) -> None:
    extra[key] = max(extra.get(key, 0), value)


def _observe_family(extra, args, result):
    _raise_to(extra, "entry_max_bits", max((bits(v) for v in result.upper.values()), default=0))


def _observe_eliminate(extra, args, result):
    _raise_to(extra, "max_dim", args[0].dim)
    _raise_to(extra, "result_max_bits", bits(result))


def _observe_solve(extra, args, result):
    _bump(extra, "cells", _cells(args[0]))


def _observe_nullspace(extra, args, result):
    _bump(extra, "cells", _cells(args[0]))
    _bump(extra, "kernel_dim", len(result))


def _observe_guess(extra, args, result):
    _bump(extra, "unknowns", result.unknowns)
    _bump(extra, "data_rows", len(result.data_window))
    _bump(extra, "validation_points", len(result.validation_window))
    _bump(extra, "rejected", result.rejected_by_validation)
    _bump(extra, "reduced_away", result.reduced_away)
    _bump(extra, "operators", len(result.operators))


# (span name, module, attribute path, observe hook).  A dotted attribute is
# a method looked up on a class of that module.
TARGETS = (
    ("sequences.from_family", "pfansatz.pfaffian", "SkewMatrix.from_family", _observe_family),
    ("pfaffian.pf_eliminate", "pfansatz.pfaffian", "pf_eliminate", _observe_eliminate),
    ("pfaffian.pf_laplace", "pfansatz.pfaffian", "pf_laplace", None),
    ("pfaffian.pf_naive", "pfansatz.pfaffian", "pf_naive", None),
    ("pfaffian.cofactor_vector", "pfansatz.pfaffian", "cofactor_vector", None),
    ("linalg.solve_linear", "pfansatz.linalg", "solve_linear", _observe_solve),
    ("linalg.nullspace", "pfansatz.linalg", "nullspace", _observe_nullspace),
    ("linalg.determinant", "pfansatz.linalg", "determinant", None),
    ("pipeline.c_table", "pfansatz.pipeline", "c_table", None),
    ("pipeline.check_identity2", "pfansatz.pipeline", "check_identity2", None),
    ("pipeline.ratio_sequence", "pfansatz.pipeline", "ratio_sequence", None),
    ("pipeline.certify", "pfansatz.pipeline", "certify", None),
    ("pipeline.check_conjecture1", "pfansatz.pipeline", "check_conjecture1", None),
    ("guessing.guess_from_table", "pfansatz.guessing", "guess_from_table", _observe_guess),
    ("guessing.residual_at", "pfansatz.guessing", "RecurrenceOperator.residual_at", None),
    ("guessing.apply_operator", "pfansatz.guessing", "apply_operator", None),
    ("guessing.leading_nonvanishing", "pfansatz.guessing", "leading_nonvanishing", None),
    ("poly.eval", "pfansatz.poly", "Polynomial.eval", None),
    ("poly.poly_gcd", "pfansatz.poly", "poly_gcd", None),
    ("minorsum.theorem4_terms", "pfansatz.minorsum", "theorem4_terms", None),
    ("cli.main", "pfansatz.cli", "main", None),
)

# Bindings that get their own span name instead of the target's: the
# solves `guessing` makes to reduce consequences, as opposed to the
# cofactor solves.
CALL_SITES = {
    ("pfansatz.guessing", "solve_linear"): "guessing.consequence_solve",
}

SPAN_NAMES = tuple(t[0] for t in TARGETS) + tuple(CALL_SITES.values())


class Tracer:
    """Per-name span aggregates for one process, and the rebindings that
    feed them.  `restore()` puts every original binding back."""

    def __init__(self):
        self.stats = {}  # name -> [calls, self_s, extra counters]
        self._stack = []  # child-time accumulators of the open spans
        self._undo = []  # (container, key, original, is_dict)

    def wrap(self, name, fn, observe=None):
        stat = self.stats.setdefault(name, [0, 0.0, {}])
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if observe is not None:
                t = clock()
                observe(stat[2], args, result)
                if stack:
                    stack[-1][0] += clock() - t
            return result

        span.__wrapped__ = fn
        return span

    def _set(self, container, key, value, is_dict):
        original = container[key] if is_dict else getattr(container, key)
        self._undo.append((container, key, original, is_dict))
        if is_dict:
            container[key] = value
        else:
            setattr(container, key, value)

    def restore(self):
        for container, key, original, is_dict in reversed(self._undo):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._undo.clear()

    def summary(self) -> dict:
        return {
            name: {"calls": calls, "self_s": self_s, **extra}
            for name, (calls, self_s, extra) in self.stats.items()
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)


def pfansatz_modules():
    """Every pfansatz submodule, imported, so no binding is missed because
    its module was not loaded yet."""
    package = importlib.import_module("pfansatz")
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"pfansatz.{info.name}"))
    return mods


def install() -> Tracer:
    tracer = Tracer()
    modules = pfansatz_modules()
    plain = {}  # id(original function) -> (name, function, observe)
    for name, module, attr, observe in TARGETS:
        mod = importlib.import_module(module)
        owner_name, _, method = attr.rpartition(".")
        if owner_name:
            cls = getattr(mod, owner_name)
            raw = vars(cls)[method]
            if isinstance(raw, classmethod):
                tracer._set(cls, method, classmethod(tracer.wrap(name, raw.__func__, observe)), False)
            else:
                tracer._set(cls, method, tracer.wrap(name, raw, observe), False)
        else:
            fn = getattr(mod, attr)
            plain[id(fn)] = (name, fn, observe)

    wrappers = {key: tracer.wrap(name, fn, observe) for key, (name, fn, observe) in plain.items()}
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in plain:
                site = CALL_SITES.get((mod.__name__, attr))
                if site is not None:
                    wrapper = tracer.wrap(site, value)
                else:
                    wrapper = wrappers[id(value)]
                tracer._set(mod, attr, wrapper, False)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if id(item) in plain:
                        tracer._set(value, key, wrappers[id(item)], True)
    return tracer


def unwrapped_bindings(modules) -> list:
    """Module attributes and module-level dict values that still hold an
    original target function; empty once `install()` has run."""
    originals = {}
    for name, module, attr, _ in TARGETS:
        if "." not in attr:
            fn = getattr(importlib.import_module(module), attr)
            originals[id(getattr(fn, "__wrapped__", fn))] = name
    found = []
    for mod in modules:
        for attr, value in vars(mod).items():
            if id(value) in originals:
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, dict) and not attr.startswith("__"):
                found.extend(
                    f"{mod.__name__}.{attr}[{key!r}]"
                    for key, item in value.items()
                    if id(item) in originals
                )
    return found
