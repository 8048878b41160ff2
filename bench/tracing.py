"""Spans around ruinkit's public functions, installed from benchmark code.

``Tracer.install()`` replaces every public function of the layer modules
(and the public methods of ``ClaimDistribution``) with a wrapper that records
a span, in every ruinkit namespace that binds the function, so calls made
through ``from .x import f`` bindings are caught too.  ``uninstall()`` puts
the originals back; untraced runs never see a wrapper.

A span is ``(id, name, start_ns, end_ns, parent_id, job_id, error)``.  Spans
stay in memory and are written as JSON when the benchmark ends.  Hot, tiny
methods (the p.g.f. and pmf lookups) only count calls.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "distributions", "series", "recurrence", "roots",
    "asymptotics", "survival", "oracle", "cli",
)

#: recursive serializer: its time belongs to render_report
UNWRAPPED = {"cli.jsonable"}

#: called thousands of times per job; a span each would swamp the timings
COUNTED_ONLY = {
    "distributions.pgf", "distributions.pgf_eval", "distributions.pgf_minus_s2",
    "distributions.hk", "distributions.is_primitive", "distributions.label",
}

#: functions whose arguments or results feed per-layer counters
_BOUND_ARGS = {
    "recurrence.build_table", "roots.refine_alpha", "survival.solve",
    "oracle.mc_estimate", "oracle.finite_horizon_dp", "cli.render_report",
}


def _bits(value) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _support(dist, n_max: int) -> list[int]:
    """Claim sizes 1 <= k < n_max with h_k != 0, read from the law's fields
    so that no wrapped method runs."""
    if dist.kind == "geometric":
        return list(range(1, n_max))
    if dist.kind == "bernoulli":
        return [1] if n_max > 1 else []
    return [k for k in range(1, min(len(dist.pmf), n_max)) if dist.pmf[k]]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self.max_values: dict[str, int] = defaultdict(int)
        self._deferred: list[tuple] = []
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        from ruinkit.distributions import ClaimDistribution

        modules = [m for name, m in sys.modules.items()
                   if name == "ruinkit" or name.startswith("ruinkit.")]
        for layer in LAYERS:
            mod = sys.modules[f"ruinkit.{layer}"]
            for name, func in list(vars(mod).items()):
                full = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(func)
                        or func.__module__ != mod.__name__ or full in UNWRAPPED):
                    continue
                wrapper = self._wrap(full, func)
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is func:
                            self._patch(ns, attr, wrapper)
        for name, attr in list(vars(ClaimDistribution).items()):
            if name.startswith("_"):
                continue
            full = f"distributions.{name}"
            if isinstance(attr, classmethod):
                self._patch(ClaimDistribution, name, classmethod(self._wrap(full, attr.__func__)))
            elif inspect.isfunction(attr):
                self._patch(ClaimDistribution, name, self._wrap(full, attr))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, full: str, func):
        counts = self.counts
        active = self.active
        if full in COUNTED_ONLY:
            calls_key = f"{full}.calls"

            def counted(*args, **kwargs):
                counts[calls_key] += 1
                if active["roots.refine_alpha"] and full == "distributions.pgf":
                    counts["roots.refine_alpha.pgf_evals"] += 1
                return func(*args, **kwargs)

            return counted

        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        layer = full.split(".", 1)[0]
        signature = inspect.signature(func) if full in _BOUND_ARGS else None
        calls_key = f"{full}.calls"

        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(full)  # an open span holds its name until it closes
            stack.append(span_id)
            counts[calls_key] += 1
            active[full] += 1
            error = None
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                active[full] -= 1
                stack.pop()
                spans[span_id] = (span_id, full, start, end, parent, self.job, error)
                # count an exception once per layer it leaves
                if error is not None and (parent is None or spans[parent].split(".", 1)[0] != layer):
                    counts[f"{layer}.errors"] += 1
            if signature is not None:
                self._note(full, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def _note(self, full: str, bound, result) -> None:
        """Per-call counters; measurements of results are deferred to the end
        of the job so they stay outside every span."""
        bound.apply_defaults()
        a = bound.arguments
        if full == "recurrence.build_table":
            self.counts["recurrence.build_table.terms"] += a["n_max"]
            self._deferred.append((full, a["dist"], a["n_max"], a["mode"], result))
        elif full == "roots.refine_alpha":
            self.counts["roots.refine_alpha.bits"] += a["bits"]
        elif full == "survival.solve":
            bits = result.diagnostics.get("alpha_bits", 0)
            self.max_values["survival.solve.alpha_bits"] = max(
                self.max_values["survival.solve.alpha_bits"], bits)
        elif full == "oracle.mc_estimate":
            self.counts["oracle.mc_estimate.trial_steps"] += a["cfg"].trials * a["cfg"].horizon
        elif full == "oracle.finite_horizon_dp":
            self.counts["oracle.finite_horizon_dp.steps"] += a["cfg"].horizon
        elif full == "cli.render_report":
            self.counts["cli.render_report.bytes"] += len(result)

    def end_job(self) -> None:
        """Measure deferred results (outside every span) and drop them."""
        for full, dist, n_max, mode, table in self._deferred:
            # the inner loop visits (n, k = n - i) for 2 <= n <= n_max and
            # 1 <= k < n; a product is useful when h_k != 0
            self.counts[f"{full}.useful"] += sum(n_max - k for k in _support(dist, n_max))
            self.counts[f"{full}.iterations"] += (n_max - 1) * n_max // 2
            if mode == "exact":
                self.max_values[f"{full}.max_bits"] = max(
                    self.max_values[f"{full}.max_bits"], max(_bits(v) for v in table.x))
        self._deferred.clear()

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name: duration minus child spans."""
        child = defaultdict(int)
        for _sid, _name, start, end, parent, _job, _err in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _job, _err in self.spans:
            out[name] += (end - start - child[sid]) / 1e9
        return out

    def records(self) -> list[dict]:
        keys = ("id", "name", "start_ns", "end_ns", "parent", "job", "error")
        return [dict(zip(keys, span)) for span in self.spans]
