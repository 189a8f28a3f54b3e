"""Outside-in tracing of `fbl`: spans around the public functions of each layer.

`Tracer.install()` replaces each function named in TARGETS with a wrapper
that records a span (name, start, end, parent) and, for some, a count. The
replacement is made in every loaded `fbl` module that holds the function,
so names imported with `from .outage import water_fill_batch` are traced
where they are looked up. `uninstall()` puts the originals back. Nothing in
`fbl` changes, so the traced CSV is the untraced one.

Each thread keeps its own span stack. A span opened on a worker thread of
`mc`'s pool with an empty stack takes as parent the span open on the thread
that installed the tracer (the `mc.sample_values` call that started the
pool), so a parent's self time is its duration minus the union of its
children's intervals, also when the children ran in parallel.

Spans are kept in memory; `summary()` aggregates them per name and
`write()` stores both at the end of a run.

Run as a script to trace one CLI call and print the time per span:

    PYTHONPATH=src python3 perfbench/tracer.py figure fig3 --seed 7 > fig3.csv
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name, counter). A counter maps (args, result) to
# (count name, amount). A span name starting with "returns:" wraps the
# function the target returns instead of the target itself.
TARGETS = [
    ("fbl.cli", "run_sweep", "cli.run_sweep", None),
    ("fbl.config", "figure_preset", "config.figure_preset", None),
    ("fbl.mc", "sample_values", "mc.sample_values", lambda a, out: ("samples", len(out))),
    ("fbl.mc", "quantile_order_indices", "mc.quantile_order_indices", None),
    ("fbl.mc", "root_find_monotone", "mc.root_find_monotone", None),
    ("fbl.mc", "log_mean_bound", "mc.log_mean_bound", None),
    ("fbl.mc", "cp_lower", "mc.cp_bound", None),
    ("fbl.mc", "cp_upper", "mc.cp_bound", None),
    ("fbl.channel", "sample_channel", "channel.sample_channel", None),
    ("fbl.channel", "effective_eigenvalues", "channel.effective_eigenvalues", None),
    ("fbl.outage", "water_fill_batch", "outage.water_fill_batch", None),
    ("fbl.outage", "outage_probability", "outage.outage_probability", None),
    ("fbl.outage", "epsilon_capacity", "outage.epsilon_capacity", None),
    ("fbl.specfun", "noncentral_chi2_sf_batch", "specfun.noncentral_chi2_sf_batch", lambda a, out: ("rows", len(a[0]))),
    ("fbl.specfun", "noncentral_chi2_logcdf_batch", "specfun.noncentral_chi2_logcdf_batch", lambda a, out: ("rows", len(a[0]))),
    ("fbl.specfun", "sample_noncentral_chi2", "specfun.sample_noncentral_chi2", None),
    ("fbl.specfun", "gaussian_q", "specfun.gaussian_q", None),
    ("fbl.converse", "SimoTailTable.q_s", "converse.SimoTailTable.q_s", None),
    ("fbl.converse", "SimoTailTable.log_q_l", "converse.SimoTailTable.log_q_l", None),
    ("fbl.converse", "converse_simo", "converse.converse_simo", None),
    ("fbl.converse", "converse_iso", "converse.converse_iso", None),
    ("fbl.achievability", "sin2_statistic_sampler", "returns:achievability.statistic_draw", None),
    ("fbl.achievability", "rate_lower_bound", "achievability.rate_lower_bound", None),
    ("fbl.achievability", "beta_product_log_tail", "achievability.beta_product_log_tail", None),
    ("fbl.achievability", "csir_kappa_beta_simo", "achievability.csir_kappa_beta_simo", None),
    ("fbl.approx", "NormalApprox.__init__", "approx.NormalApprox.init", None),
    ("fbl.approx", "NormalApprox.rate", "approx.NormalApprox.rate", None),
    ("fbl.approx", "NormalApprox.outage_cdf", "approx.NormalApprox.outage_cdf", None),
]

# The per-layer metrics the benchmark reports: "<span name>.<field>", where
# field is calls, s (inclusive seconds), self_s, or a counter name.
PER_LAYER = [
    "specfun.noncentral_chi2_sf_batch.calls",
    "specfun.noncentral_chi2_sf_batch.rows",
    "specfun.noncentral_chi2_sf_batch.s",
    "specfun.noncentral_chi2_logcdf_batch.calls",
    "specfun.noncentral_chi2_logcdf_batch.rows",
    "specfun.noncentral_chi2_logcdf_batch.s",
    "converse.SimoTailTable.q_s.calls",
    "converse.SimoTailTable.q_s.s",
    "converse.SimoTailTable.q_s.self_s",
    "converse.SimoTailTable.log_q_l.calls",
    "converse.SimoTailTable.log_q_l.s",
    "mc.cp_bound.calls",
    "converse.converse_simo.s",
    "achievability.csir_kappa_beta_simo.s",
    "achievability.statistic_draw.s",
    "achievability.rate_lower_bound.s",
    "achievability.beta_product_log_tail.s",
    "channel.effective_eigenvalues.calls",
    "channel.effective_eigenvalues.s",
    "channel.sample_channel.calls",
    "channel.sample_channel.s",
    "specfun.sample_noncentral_chi2.s",
    "converse.converse_iso.s",
    "mc.sample_values.calls",
    "mc.sample_values.samples",
    "mc.sample_values.s",
    "mc.sample_values.self_s",
    "mc.quantile_order_indices.s",
    "mc.log_mean_bound.s",
    "outage.water_fill_batch.s",
    "outage.epsilon_capacity.s",
    "outage.outage_probability.s",
    "approx.NormalApprox.init.s",
    "approx.NormalApprox.rate.s",
    "approx.NormalApprox.outage_cdf.calls",
    "mc.root_find_monotone.calls",
    "mc.root_find_monotone.s",
    "specfun.gaussian_q.s",
    "cli.run_sweep.self_s",
    "config.figure_preset.s",
]


def metric_unit(name):
    return "s" if name.rsplit(".", 1)[1] in ("s", "self_s", "overhead_s") else "count"


def _union_length(intervals, lo, hi):
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end)
        self.counts = defaultdict(int)  # (span name, counter) -> total
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._owner_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        owner = self._owner_stack
        if owner is not None and stack is not owner and owner:
            return owner[-1]
        return None

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = tracer._parent(stack)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            if counter is not None:
                key, amount = counter(args, out)
                with tracer._lock:
                    tracer.counts[(name, key)] += amount
            return out

        return traced

    def _wrap_factory(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return tracer.wrap(fn(*args, **kwargs), name)

        return factory

    def install(self):
        """Trace every target; call from the thread that runs the CLI."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._owner_stack = self._stack()
        for module_name, attr, name, counter in TARGETS:
            module = sys.modules[module_name]
            if name.startswith("returns:"):
                make = functools.partial(self._wrap_factory, name=name.split(":", 1)[1])
            else:
                make = functools.partial(self.wrap, name=name, counter=counter)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._patches.append((owner, meth, original))
                setattr(owner, meth, make(original))
                continue
            original = getattr(module, attr)
            wrapped = make(original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "fbl" or mod_name.startswith("fbl."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []
        self._owner_stack = None

    def summary(self):
        """{span name: {"calls", "s", "self_s", counters...}} over all spans."""
        children = defaultdict(list)
        for _, parent, _, t0, t1 in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, _, name, t0, t1 in self.spans:
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - _union_length(children.get(sid, ()), t0, t1)
        for (name, key), value in self.counts.items():
            out[name][key] = value
        return dict(out)

    def write(self, path, extra=None):
        """Store the summary and every span as JSON."""
        payload = {
            **(extra or {}),
            "summary": self.summary(),
            "spans": [list(s) for s in sorted(self.spans)],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def per_layer_metrics(summary, rounds):
    """The PER_LAYER values per traced round (0 where a layer was not called)."""
    metrics = {}
    for metric in PER_LAYER:
        name, field = metric.rsplit(".", 1)
        metrics[metric] = summary.get(name, {}).get(field, 0) / rounds
    return metrics


def main(argv):
    import fbl.cli

    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        code = fbl.cli.main(argv)
    finally:
        wall = perf_counter() - t0
        tracer.uninstall()
    rows = sorted(tracer.summary().items(), key=lambda kv: -kv[1]["s"])
    print(f"{'span':44} {'calls':>8} {'s':>9} {'self_s':>9}  counters", file=sys.stderr)
    for name, agg in rows:
        extra = " ".join(f"{k}={v}" for k, v in agg.items() if k not in ("calls", "s", "self_s"))
        print(f"{name:44} {agg['calls']:8d} {agg['s']:9.3f} {agg['self_s']:9.3f}  {extra}", file=sys.stderr)
    print(f"{'wall':44} {'':8} {wall:9.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
