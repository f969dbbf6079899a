"""Per-layer spans and counters, installed from outside the program.

``Tracer.install`` replaces each traced function at every module or class
attribute of the ``bruhatkl`` package that names it, because the layers
import names directly (``from .matchings import is_H_special``) and a
patch of the defining module alone would miss those calls.
``Tracer.uninstall`` puts the originals back.

Spans record name, start, end, parent span and op id, and are kept in
memory until the run ends.  Hot functions get a call counter instead of a
span: a span per ``Interval.leq`` call would swamp the trace.
"""

from __future__ import annotations

import collections
import importlib
import time

LAYERS = ("coxeter", "poset", "matchings", "klpoly", "invariance", "cli")

# "module:qualname" under bruhatkl -> span name.  A call made while a span
# of the same name is open gets no span of its own, so each isomorphism
# query counts once even though find_isomorphism delegates.
SPANS = {
    "cli:main": "cli.main",
    "invariance:sweep_calculating": "invariance.sweep_calculating",
    "invariance:invariance_scan": "invariance.invariance_scan",
    "invariance:mongelli_reproduction": "invariance.mongelli_reproduction",
    "poset:build_lower_interval": "poset.build_lower_interval",
    "poset:build_interval": "poset.build_interval",
    "poset:find_isomorphism": "poset.isomorphism",
    "poset:find_marked_isomorphism": "poset.isomorphism",
    "poset:find_order_isomorphism": "poset.isomorphism",
    "matchings:enumerate_special_matchings": "matchings.enumerate",
    "klpoly:verify_calculating": "klpoly.verify_calculating",
    "klpoly:KLContext.R": "klpoly.R",
    "klpoly:KLContext.P": "klpoly.P",
}

# "module:qualname" -> counter name, for functions too hot for spans
COUNTERS = {
    "coxeter:CoxeterSystem.bruhat_leq": "coxeter.bruhat_leq.calls",
    "coxeter:CoxeterSystem.multiply_by_generator":
        "coxeter.multiply_by_generator.calls",
    "coxeter:CoxeterSystem.element_from_word":
        "coxeter.element_from_word.calls",
    "poset:Interval.leq": "poset.leq.calls",
    "matchings:is_H_special": "matchings.is_H_special.calls",
    "klpoly:KLContext.__init__": "klpoly.contexts",
    "klpoly:QPolynomial.__mul__": "klpoly.qpoly_mul.calls",
    "klpoly:QPolynomial.__add__": "klpoly.qpoly_add.calls",
}


def _resolve(target: str):
    module, _, qualname = target.partition(":")
    obj = importlib.import_module("bruhatkl." + module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _owners(modules):
    """Every namespace that can name a traced function: the modules and
    the classes they define."""
    for mod in modules:
        yield mod
        for val in list(vars(mod).values()):
            if isinstance(val, type) and val.__module__ == mod.__name__:
                yield val


class Tracer:
    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index, op id)
        self.counts = dict.fromkeys(COUNTERS.values(), 0)
        self.counts["matchings.found"] = 0
        self.counts["matchings.h_special"] = 0
        self.op = None
        self._stack: list = []
        self._open = collections.Counter()
        self._patches: list = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, open_ = self.spans, self._stack, self._open
        clock = time.perf_counter
        counts = self.counts

        def wrapper(*args, **kwargs):
            if open_[name]:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            open_[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_[name] -= 1
                spans[idx] = (name, start, end, parent, self.op)
            if name == "matchings.enumerate":
                counts["matchings.found"] += len(result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts, open_ = self.counts, self._open
        if name == "matchings.is_H_special.calls":
            # klpoly re-tests matchings it is handed; only the verdicts
            # given outside verify_calculating classify enumerated ones
            def wrapper(*args, **kwargs):
                counts[name] += 1
                result = fn(*args, **kwargs)
                if result and not open_["klpoly.verify_calculating"]:
                    counts["matchings.h_special"] += 1
                return result
            return wrapper

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module("bruhatkl." + m) for m in LAYERS]
        modules += [importlib.import_module("bruhatkl"),
                    importlib.import_module("bruhatkl.__main__")]
        owners = list(_owners(modules))
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for target, name in table.items():
                orig = _resolve(target)
                wrapper = make(name, orig)
                for owner in owners:
                    for attr, val in list(vars(owner).items()):
                        if val is orig:
                            setattr(owner, attr, wrapper)
                            self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def span_totals(self) -> dict:
        """{span name: (outermost calls, self seconds)}.  Self time is a
        span's duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = collections.Counter()
        self_s = collections.Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - covered[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def metrics(self) -> dict:
        out = dict(self.counts)
        h_special = out.pop("matchings.h_special")
        found = out["matchings.found"]
        out["matchings.h_special_ratio"] = h_special / found if found else 0.0
        totals = self.span_totals()
        for name in set(SPANS.values()):
            calls, secs = totals.get(name, (0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".s"] = secs
        return out
