"""Outside-in tracing of orbicount's layers.

``Tracer.install`` replaces every public function of the layer modules with a
wrapper, under every module name that binds it (``enumeration.distinct_primes``
as well as ``arith.distinct_primes``), and ``uninstall`` puts the originals
back.  Nothing inside the package changes.

Most wrappers record a span: name, start, end, parent span id, job id.  The
hot ``arith`` leaves (everything public in ``arith`` except the two sieves)
run millions of times a pass, so they only count their calls against the
enclosing span and keep a bounded, evenly spaced sample of the arguments of
``factorize``, ``integer_kth_root`` and ``count_coprime``.  ``replay_ns``
times those samples in a tight loop on the original functions, which keeps
the wrapper's own cost out of the per-call figures.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import random
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Callable, Dict, List, Optional

PACKAGE = "orbicount"
LAYERS = ("cli", "enumeration", "arith", "localfactors", "constants", "fitting")
SPANNED_ARITH = ("arith.primes_up_to", "arith.mobius_sieve")
SAMPLED = ("arith.factorize", "arith.integer_kth_root", "arith.count_coprime")
SAMPLE_CAP = 4096
REPLAY_SECONDS = 0.2

DENOMINATORS = (
    "enumeration.darmon_denominators",
    "enumeration.campana_denominators",
    "enumeration.k_full_numbers",
)

# Span fields, in order.
NAME, START, END, PARENT, JOB, TAG = range(6)


class Thinned:
    """At most ``cap`` items of a sequence, evenly spaced over all of it:
    keeps every ``stride``-th offer and doubles the stride when full."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.stride = 1
        self.seen = 0
        self.items: List[tuple] = []

    def offer(self, item: tuple) -> None:
        if self.seen % self.stride == 0:
            self.items.append(item)
            if len(self.items) >= self.cap:
                self.items = self.items[::2]
                self.stride *= 2
        self.seen += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.leaf_calls: Dict[tuple, int] = {}  # (name, enclosing span id) -> calls
        self.samples = {name: Thinned(SAMPLE_CAP) for name in SAMPLED}
        self.job = -1
        self.originals: Dict[str, Callable] = {}
        self._undo: List[tuple] = []
        arith = importlib.import_module(f"{PACKAGE}.arith")
        self._kth_root = arith.integer_kth_root
        self._tags = {
            "enumeration.count_blowup": self._pairs_visited,
            "fitting.zeta_partial_sum": lambda args, result: args[0].name,
        }
        for name in DENOMINATORS:
            self._tags[name] = lambda args, result: len(result)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        owners = {m.__name__ for m in modules}
        wrappers: Dict[int, Callable] = {}
        for module in modules + [importlib.import_module(PACKAGE)]:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ not in owners:
                    continue
                if id(fn) not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                    self.originals[name] = fn
                    leaf = name.startswith("arith.") and name not in SPANNED_ARITH
                    wrappers[id(fn)] = (self._leaf if leaf else self._span)(name, fn)
                setattr(module, attr, wrappers[id(fn)])
                self._undo.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()

    def _span(self, name: str, fn: Callable) -> Callable:
        spans, stack, tag = self.spans, self.stack, self._tags.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if tag is not None:
                rec[TAG] = tag(args, result)
            return result

        return wrapped

    def _leaf(self, name: str, fn: Callable) -> Callable:
        calls, stack = self.leaf_calls, self.stack
        sample = self.samples.get(name)

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            key = (name, stack[-1] if stack else -1)
            calls[key] = calls.get(key, 0) + 1
            if sample is not None:
                sample.offer(args)
            return fn(*args, **kwargs)

        return wrapped

    def _pairs_visited(self, args, result) -> int:
        """Mmax (Mmax + 1) pairs (x0, x1) for count_blowup(m1, m2, S, B, ...),
        from its inputs; computed with the unwrapped integer_kth_root."""
        m1, B = args[0], Fraction(args[3])
        if B < 1:
            return 0
        Bm1 = B**m1
        mmax = self._kth_root(Bm1.numerator // Bm1.denominator, m1 + 1)
        return mmax * (mmax + 1) if mmax >= 1 else 0

    # -- derived numbers ---------------------------------------------------

    def leaf_total(self, name: str) -> int:
        return sum(n for (leaf, _), n in self.leaf_calls.items() if leaf == name)

    def per_job(self, job: int) -> Dict[str, float]:
        """Counts of one job, for the acceptance figures."""
        visited = admitted = 0
        factors = 0
        for sid, s in enumerate(self.spans):
            if s[JOB] != job:
                continue
            if s[NAME] == "enumeration.count_blowup":
                visited += s[TAG] or 0
                admitted += self.leaf_calls.get(("arith.distinct_primes", sid), 0)
            elif s[NAME] == "localfactors.normalized_factor":
                factors += 1
        return {
            "pairs_visited": visited,
            "pairs_admitted": admitted,
            "normalized_factor_calls": factors,
        }

    def metrics(self) -> Dict[str, float]:
        spans = self.spans
        dur = [s[END] - s[START] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]

        def parent_name(s):
            return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

        def total(names, outermost=False):
            return sum(
                dur[i]
                for i, s in enumerate(spans)
                if s[NAME] in names and not (outermost and parent_name(s) in names)
            )

        def self_time(names):
            return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[NAME] in names)

        def ncalls(name):
            return sum(1 for s in spans if s[NAME] == name)

        blowup = [(i, s) for i, s in enumerate(spans) if s[NAME] == "enumeration.count_blowup"]
        visited = sum(s[TAG] or 0 for _, s in blowup)
        admitted = sum(
            self.leaf_calls.get(("arith.distinct_primes", i), 0) for i, _ in blowup
        )
        counts = ("enumeration.count_p1", "enumeration.count_pn2")
        denoms = [
            s for s in spans if s[NAME] in DENOMINATORS and parent_name(s) not in DENOMINATORS
        ]
        nf = ncalls("localfactors.normalized_factor")
        nf_time = total(("localfactors.normalized_factor",))
        zeta = [(i, s) for i, s in enumerate(spans) if s[NAME] == "fitting.zeta_partial_sum"]
        return {
            "cli.self_s": self_time(("cli.main",)),
            "enumeration.count_blowup.s": total(("enumeration.count_blowup",)),
            "enumeration.blowup.pairs_visited": visited,
            "enumeration.blowup.pairs_admitted": admitted,
            "enumeration.blowup.admit_ratio": admitted / visited if visited else 0.0,
            "enumeration.count_p1.s": total(("enumeration.count_p1",)),
            "enumeration.count_pn2.s": total(("enumeration.count_pn2",)),
            "enumeration.denominators.s": total(DENOMINATORS, outermost=True),
            "enumeration.denominators.n": sum(s[TAG] or 0 for s in denoms),
            "enumeration.per_q.s": self_time(counts),
            "enumeration.mobius.s": total(("arith.mobius_sieve",)),
            "arith.factorize.calls": self.leaf_total("arith.factorize"),
            "arith.count_coprime.calls": self.leaf_total("arith.count_coprime"),
            "arith.integer_kth_root.calls": self.leaf_total("arith.integer_kth_root"),
            "arith.is_kth_power.calls": self.leaf_total("arith.is_kth_power"),
            "arith.is_k_full.calls": self.leaf_total("arith.is_k_full"),
            "arith.primes_up_to.s": total(("arith.primes_up_to",), outermost=True),
            "localfactors.normalized_factor.calls": nf,
            "localfactors.normalized_factor.us_per_call": nf_time / nf * 1e6 if nf else 0.0,
            "localfactors.denef_factor.calls": ncalls("localfactors.denef_factor"),
            "localfactors.archimedean.s": total(
                ("localfactors.archimedean_blowup", "localfactors.archimedean_projective")
            ),
            "constants.leading_constant.s": total(("constants.leading_constant",)),
            "constants.euler_product.self_s": self_time(("constants.truncated_euler_product",)),
            "constants.paper_values.s": total(
                ("constants.p1_campana_constant", "constants.blowup_reference_constant")
            ),
            "fitting.zeta_line.s": sum(dur[i] for i, s in zeta if s[TAG] != "blowup"),
            "fitting.zeta_blowup.s": sum(dur[i] for i, s in zeta if s[TAG] == "blowup"),
            "fitting.fit_counts.s": total(("fitting.fit_counts",)),
        }

    def replay(self, sieve_bound: int) -> Dict[str, float]:
        """ns per call of the sampled arith leaves, on the original functions."""
        fact = self.samples["arith.factorize"].items
        return {
            "arith.factorize.small.ns_per_call": replay_ns(
                self.originals.get("arith.factorize"), [a for a in fact if a[0] < sieve_bound]
            ),
            "arith.factorize.large.ns_per_call": replay_ns(
                self.originals.get("arith.factorize"), [a for a in fact if a[0] >= sieve_bound]
            ),
            "arith.count_coprime.ns_per_call": replay_ns(
                self.originals.get("arith.count_coprime"),
                self.samples["arith.count_coprime"].items,
            ),
            "arith.integer_kth_root.ns_per_call": replay_ns(
                self.originals.get("arith.integer_kth_root"),
                self.samples["arith.integer_kth_root"].items,
            ),
        }

    def write(self, fh, pass_index: int) -> None:
        for sid, s in enumerate(self.spans):
            fh.write(
                json.dumps(
                    {
                        "pass": pass_index,
                        "id": sid,
                        "name": s[NAME],
                        "start": s[START],
                        "end": s[END],
                        "parent": s[PARENT],
                        "job": s[JOB],
                        "tag": s[TAG],
                    }
                )
                + "\n"
            )


def replay_ns(fn: Optional[Callable], calls: List[tuple]) -> float:
    """Mean ns per call of ``fn`` over the recorded arguments, replayed in a
    fixed shuffled order (so a cut-off replay is not biased to early calls)
    for at least REPLAY_SECONDS."""
    if fn is None or not calls:
        return 0.0
    order = list(calls)
    random.Random(0).shuffle(order)
    n = 0
    start = perf_counter()
    while True:
        for i in range(0, len(order), 64):
            block = order[i : i + 64]
            for args in block:
                fn(*args)
            n += len(block)
            elapsed = perf_counter() - start
            if elapsed >= REPLAY_SECONDS:
                return elapsed / n * 1e9


def write_spans(path: str, tracers: List[Tracer], header: dict) -> None:
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"header": header}) + "\n")
        for k, t in enumerate(tracers):
            t.write(fh, k)


def median_metrics(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
