"""Out-of-program tracing for the eiscong benchmark.

``Tracer.install`` wraps every public module-level function of each layer
module and rebinds the wrapper under every name that refers to the original
in any loaded ``eiscong.*`` module, so calls from inside the library are
seen as well as calls from the benchmark.  Each call becomes a span (name,
start, end, parent) held in flat arrays; ``write_spans`` dumps them when the
pass ends.

Bookkeeping done after a call (pair counting, coefficient bit sizes) runs
outside the call's span and is recorded as excluded time on every enclosing
span, so it inflates no layer's self time.  ``paused()`` turns recording off
while the benchmark checks outputs with library functions.

Generator functions (``arith.primes``) are not wrapped: a span would close
when the generator is created.  Their work lands in the caller, and the
``is_prime`` calls they make are still seen.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import json
import statistics
import sys
from array import array
from collections import Counter
from time import perf_counter

from workloads import irregular_candidates

LAYERS = ("arith", "siegel", "hermitian", "elliptic", "expansion", "congruence", "cli")

_COEFF = {
    "siegel": {"siegel.siegel_g_coefficient", "siegel.siegel_e_coefficient"},
    "hermitian": {"hermitian.hermitian_g_coefficient", "hermitian.hermitian_e_coefficient"},
}
_EXPANSION = {"siegel": "siegel.siegel_expansion", "hermitian": "hermitian.hermitian_expansion"}
_CUSP = {
    "siegel": ("siegel.igusa_x10", "siegel.igusa_x12"),
    "hermitian": ("hermitian.hermitian_cusp_form",),
}
_SOLVE = {"congruence.solve_lambda", "congruence.verify_congruence", "congruence.reduce_mod_p"}
_SCANNERS = {
    "congruence.irregular_pairs",
    "congruence.condition_b_primes",
    "congruence.condition_a_check",
    "congruence.nontriviality_witness",
    "congruence.bruinier_search",
}


def _coeff_bits(f) -> int:
    best = 0
    for idx in f.support():
        c = f.coefficient(idx)
        best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best


def _pair_products(f, g) -> int:
    """Support pairs (s, u) of f and g with trace(s) + trace(u) <= bound."""
    bound = min(f.trace_bound, g.trace_bound)
    hf = [0] * (bound + 1)
    hg = [0] * (bound + 1)
    for hist, e in ((hf, f), (hg, g)):
        for idx in e.support():
            t = e.lattice.trace(idx)
            if t <= bound:
                hist[t] += 1
    prefix = [0]
    for n in hg:
        prefix.append(prefix[-1] + n)
    return sum(n * prefix[bound - t + 1] for t, n in enumerate(hf))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.excluded = array("d")
        self._stack: list[tuple[int, list]] = []
        self.active = True
        self.overhead_s = 0.0
        self.originals: dict[str, object] = {}
        self.counts = {
            "pair_products": 0,
            "coeff_bits": 0,
            "arith_bits": 0,
            "indices_checked": 0,
            "irregular_candidates": 0,
            "irregular_found": 0,
            "text_bytes": 0,
        }

    # -- installation -------------------------------------------------------

    def calibrate(self, calls=2000, rounds=5) -> None:
        """Measure ``overhead_s``: the time a wrapper spends outside its own
        span, which lands in the parent's span.  ``metrics`` subtracts it once
        per descendant.  Best of a few rounds, since the machine drifts."""

        def noop():
            return None

        wrapped = self._wrap("calibration", noop, None)
        best = float("inf")
        for _ in range(rounds):
            first = len(self.start)
            t0 = perf_counter()
            for _ in range(calls):
                wrapped()
            t_wrapped = perf_counter() - t0
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t_plain = perf_counter() - t0
            inside = sum(self.end[s] - self.start[s] for s in range(first, len(self.start)))
            best = min(best, (t_wrapped - t_plain - inside) / calls)
        self.overhead_s = max(best, 0.0)
        for arr in (self.name_of, self.start, self.end, self.parent, self.excluded):
            del arr[:]

    def install(self) -> None:
        self.calibrate()
        hooks = {
            "arith.bernoulli": self._post_bernoulli,
            "arith.generalized_bernoulli": self._post_bernoulli,
            "expansion.exp_multiply": self._post_multiply,
            "expansion.exp_add": self._post_expansion,
            "expansion.exp_scale": self._post_expansion,
            "expansion.exp_parse": self._post_parse,
            "expansion.exp_serialize": self._post_serialize,
            "congruence.verify_congruence": self._post_verify,
            "congruence.irregular_pairs": self._post_irregular,
        }
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"eiscong.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isgeneratorfunction(inspect.unwrap(obj)):
                    continue
                qual = f"{layer}.{attr}"
                self.originals[qual] = obj
                replace[id(obj)] = self._wrap(qual, obj, hooks.get(qual))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "eiscong" or name.startswith("eiscong.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, qual, fn, post):
        name_id = self._name_ids.setdefault(qual, len(self.names))
        if name_id == len(self.names):
            self.names.append(qual)
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.start)
            tracer.name_of.append(name_id)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.excluded.append(0.0)
            frame = [0.0]
            stack.append((sid, frame))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
                tracer.excluded[sid] = frame[0]
            spent = 0.0
            if post is not None:
                p0 = perf_counter()
                post(args, result)
                spent = perf_counter() - p0
            if stack:
                stack[-1][1][0] += frame[0] + spent
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qual)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- post-call hooks (run outside the span) -------------------------------

    def _post_bernoulli(self, args, result):
        bits = result.numerator.bit_length()
        if bits > self.counts["arith_bits"]:
            self.counts["arith_bits"] = bits

    def _post_expansion(self, args, result):
        bits = _coeff_bits(result)
        if bits > self.counts["coeff_bits"]:
            self.counts["coeff_bits"] = bits

    def _post_multiply(self, args, result):
        self.counts["pair_products"] += _pair_products(args[0], args[1])
        self._post_expansion(args, result)

    def _post_parse(self, args, result):
        self.counts["text_bytes"] += len(args[0])
        self._post_expansion(args, result)

    def _post_serialize(self, args, result):
        self.counts["text_bytes"] += len(result)

    def _post_verify(self, args, result):
        self.counts["indices_checked"] += result.indices_checked

    def _post_irregular(self, args, result):
        self.counts["irregular_candidates"] += irregular_candidates(args[0])
        self.counts["irregular_found"] += len(result)

    # -- analysis -------------------------------------------------------------

    def metrics(self, cli_expands) -> dict:
        """Per-layer metrics of this pass; ``cli_expands`` lists
        (hit?, seconds) for each ``expand`` command the workload ran."""
        n = len(self.start)
        names = [self.names[i] for i in self.name_of]
        parent = self.parent
        # descendants[s]: spans below s; each left overhead_s inside s
        descendants = [0] * n
        for s in range(n - 1, -1, -1):  # children are recorded after their parent
            if parent[s] >= 0:
                descendants[parent[s]] += descendants[s] + 1
        net = [self.end[s] - self.start[s] - self.excluded[s] - descendants[s] * self.overhead_s
               for s in range(n)]
        child_net = [0.0] * n
        arith_below = [0.0] * n  # net time of arith calls made below a span
        for s in range(n - 1, -1, -1):
            p = parent[s]
            if p >= 0:
                child_net[p] += net[s]
                arith_below[p] += net[s] if names[s].startswith("arith.") else arith_below[s]
        self_by = Counter()
        calls_by = Counter()
        for s in range(n):
            self_by[names[s]] += net[s] - child_net[s]
            calls_by[names[s]] += 1

        def self_time(*group):
            return sum(self_by[name] for name in group)

        def layer(counter, prefix):
            return sum(v for name, v in counter.items() if name.startswith(prefix + "."))

        def outermost(group):
            return [s for s in range(n)
                    if names[s] in group and (parent[s] < 0 or names[parent[s]] not in group)]

        m = {}
        gen = self.originals["arith.generalized_bernoulli"].cache_info()
        m["arith.self_s"] = layer(self_by, "arith")
        m["arith.calls"] = layer(calls_by, "arith")
        m["arith.max_bits"] = self.counts["arith_bits"]
        m["arith.gen_bernoulli_hit_ratio"] = (
            gen.hits / (gen.hits + gen.misses) if gen.hits + gen.misses else 0.0
        )
        for mod in ("siegel", "hermitian"):
            top = outermost(_COEFF[mod])
            m[f"{mod}.coeff_self_s"] = sum(net[s] - arith_below[s] for s in top)
            m[f"{mod}.coeffs"] = len(top)
            m[f"{mod}.expansion_self_s"] = self_time(_EXPANSION[mod])
            m[f"{mod}.cusp_self_s"] = self_time(*_CUSP[mod])
        m["elliptic.self_s"] = layer(self_by, "elliptic")
        m["elliptic.delta_builds"] = self.originals["elliptic.delta_expansion"].cache_info().misses
        m["expansion.multiply_s"] = self_time("expansion.exp_multiply")
        m["expansion.multiply_calls"] = calls_by["expansion.exp_multiply"]
        m["expansion.pair_products"] = self.counts["pair_products"]
        m["expansion.multiply_ns_per_pair"] = (
            m["expansion.multiply_s"] * 1e9 / m["expansion.pair_products"]
            if m["expansion.pair_products"] else 0.0
        )
        m["expansion.add_scale_s"] = self_time("expansion.exp_add", "expansion.exp_scale")
        m["expansion.max_coeff_bits"] = self.counts["coeff_bits"]
        m["expansion.serialize_s"] = sum(net[s] for s in outermost({"expansion.exp_serialize"}))
        m["expansion.parse_s"] = sum(net[s] for s in outermost({"expansion.exp_parse"}))
        m["expansion.text_bytes"] = self.counts["text_bytes"]
        text_s = m["expansion.serialize_s"] + m["expansion.parse_s"]
        m["expansion.text_MBps"] = self.counts["text_bytes"] / 1e6 / text_s if text_s else 0.0
        m["congruence.solve_s"] = sum(net[s] for s in outermost(_SOLVE))
        m["congruence.indices_checked"] = self.counts["indices_checked"]
        m["congruence.cusp_correction_self_s"] = self_time("congruence.cusp_correction")
        m["congruence.scan_self_s"] = sum(net[s] - arith_below[s] for s in outermost(_SCANNERS))
        cand = self.counts["irregular_candidates"]
        m["congruence.irregular_yield"] = self.counts["irregular_found"] / cand if cand else 0.0
        m["cli.self_s"] = self_time("cli.main")
        hits = [t for hit, t in cli_expands if hit]
        misses = [t for hit, t in cli_expands if not hit]
        m["cli.cache_hits"] = len(hits)
        m["cli.cache_misses"] = len(misses)
        m["cli.cache_hit_s"] = statistics.median(hits) if hits else 0.0
        m["cli.cache_miss_s"] = statistics.median(misses) if misses else 0.0
        return m

    def write_spans(self, path) -> int:
        """Write one JSON line per span: id, name, start, end, parent,
        excluded (seconds of benchmark bookkeeping inside the span)."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            for s in range(len(self.start)):
                out.write(json.dumps([
                    s, self.names[self.name_of[s]], self.start[s], self.end[s],
                    self.parent[s], self.excluded[s],
                ]) + "\n")
        return len(self.start)
