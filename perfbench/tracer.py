"""Outside-in tracing: spans around the benchmark's calls into each layer.

``instrument`` replaces the public entry points of the ``crossfourier``
modules with timing wrappers, in the defining module and in every module
namespace that imported the same object by name (``decay`` and
``summation``, for example, import ``compression_matrix`` directly), and
patches methods on their classes.  Nothing under ``src/`` is edited.

Each wrapper keeps a stack frame; a span's self time is its duration minus
the durations of the wrapped calls made inside it.  Spans are kept in
memory as ``(name, start, end, parent, task)`` and written out by
``Tracer.dump`` when the run ends.  The hottest leaves (algebra element
operations, the system action/cocycle lookups) would produce about a million
spans per run; they are aggregated into call counts and self time only, and
a recorded span's parent is its nearest recorded ancestor.

Counter hooks run after a wrapped call returns.  Their time is booked as
child time of the enclosing span, so it lands in ``trace_overhead_frac``
and not in any layer's self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.on = False
        self.task = -1
        self.t0 = time.perf_counter()
        self.stack: list = []  # frames: [start, child time, span id, name]
        self.stats: dict = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.task_compressions: set = set()
        self.task_systems: dict = {}

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name, hot=False, after=None):
        tr, stack, spans = self, self.stack, self.spans
        stat = self.stats[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            parent_id = parent[2] if parent else -1
            if hot:
                sid = parent_id
            else:
                sid = len(spans)
                spans.append(None)
            frame = [clock(), 0.0, sid, name]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stat[0] += 1
                stat[1] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if not hot:
                    spans[sid] = (name, frame[0] - tr.t0, end - tr.t0, parent_id, tr.task)
            if after is not None:
                t = clock()
                after(args, kwargs, out)
                if parent is not None:
                    parent[1] += clock() - t
            return out

        return traced

    def patch_function(self, module, attr, name, **kw):
        """Wrap module.attr in every crossfourier namespace bound to the same object."""
        orig = getattr(module, attr)
        traced = self.wrap(orig, name, **kw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "crossfourier" and getattr(mod, attr, None) is orig:
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr, name, **kw):
        setattr(cls, attr, self.wrap(cls.__dict__[attr], name, **kw))

    # -- tasks ----------------------------------------------------------------

    def run_task(self, task_id, fn):
        """Run one task under a root span named ``task``."""
        self.task = task_id
        self.task_compressions.clear()
        self.task_systems.clear()
        self.on = True
        try:
            return self.wrap(fn, "task")()
        finally:
            self.on = False
            held = sum(
                len(getattr(s, "_action_cache", ())) + len(getattr(s, "_cocycle_cache", ()))
                for s in self.task_systems.values()
            )
            self.counters["system.cache_entries_max"] = max(
                self.counters["system.cache_entries_max"], held
            )

    def in_span(self, name) -> bool:
        return any(frame[3] == name for frame in self.stack)

    def dump(self, path, extra: dict):
        names = sorted({s[0] for s in self.spans if s is not None})
        code = {n: i for i, n in enumerate(names)}
        payload = {
            "span_fields": ["name", "start_s", "end_s", "parent", "task"],
            "names": names,
            "spans": [[code[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                      for s in self.spans if s is not None],
            "stats": {k: {"calls": v[0], "self_s": v[1]} for k, v in sorted(self.stats.items())},
            "counters": dict(self.counters),
            **extra,
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def instrument(tracer: Tracer, dense_limit: int):
    """Wrap the public entry points of every crossfourier layer."""
    from crossfourier import (
        algebra, cli, config, crossed, decay, groups, ideals, modules, multipliers, summation, system,
    )

    c = tracer.counters

    def count(key, amount=1):
        c[key] += amount

    # groups
    tracer.patch_function(groups, "ball", "groups.ball",
                          after=lambda a, k, out: count("groups.ball.points", len(out)))

    # algebra
    for attr in ("__add__", "__sub__", "__mul__", "__rmul__", "star"):
        tracer.patch_method(algebra.AlgElement, attr, "algebra.op", hot=True)
    tracer.patch_method(algebra.AlgAutomorphism, "__call__", "algebra.op", hot=True)
    tracer.patch_method(algebra.AlgElement, "norm", "algebra.norm", hot=True)
    tracer.patch_method(algebra.AlgAutomorphism, "inverse", "algebra.inverse", hot=True)

    # system: a lookup that grows the memo dict was a cache miss
    def cached(method, cache_attr, key):
        orig = system.TwistedSystem.__dict__[method]

        def lookup(self, *args):
            if not tracer.on:
                return orig(self, *args)
            tracer.task_systems[id(self)] = self
            cache = getattr(self, cache_attr)
            before = len(cache)
            out = orig(self, *args)
            if len(cache) > before:
                count(key)
            return out

        setattr(system.TwistedSystem, method, tracer.wrap(lookup, f"system.{method}", hot=True))

    cached("action", "_action_cache", "system.action.misses")
    cached("cocycle", "_cocycle_cache", "system.cocycle.misses")
    tracer.patch_function(system, "validate_system", "system.validate",
                          after=lambda a, k, out: count("system.validate.triples", out.n_triples))

    # crossed
    tracer.patch_method(crossed.CcElement, "__mul__", "crossed.product",
                        after=lambda a, k, out: count("crossed.product.terms", len(a[0]) * len(a[1])))
    tracer.patch_method(crossed.CcElement, "star", "crossed.star")

    def compressed(args, kwargs, out):
        f = args[0]
        R = args[1] if len(args) > 1 else kwargs["R"]
        length = args[2] if len(args) > 2 else kwargs.get("length")
        key = (id(f.system.group), float(R), getattr(length, "tag", None))
        if key in tracer.task_compressions:
            count("crossed.compress.repeats")
        tracer.task_compressions.add(key)
        n = out.matrix.shape[0]
        c["crossed.compress.dim_max"] = max(c["crossed.compress.dim_max"], n)
        count("crossed.compress.dense_bytes", out.matrix.nbytes)
        count("crossed.compress.entries", out.matrix.size)
        count("crossed.compress.nonzeros", int(np.count_nonzero(out.matrix)))
        if tracer.in_span("decay.probe"):
            count("decay.probe.compressions")

    tracer.patch_function(crossed, "compression_matrix", "crossed.compress", after=compressed)
    tracer.patch_function(
        crossed, "largest_singular_value", "crossed.svd",
        after=lambda a, k, out: count(
            "crossed.svd.dense_calls" if a[0].shape[0] <= dense_limit else "crossed.svd.lanczos_calls"),
    )
    tracer.patch_function(crossed, "opnorm_bounds", "crossed.opnorm")
    tracer.patch_function(crossed, "exact_norm_finite", "crossed.opnorm")

    # multipliers
    tracer.patch_function(multipliers, "apply_multiplier", "multipliers.apply")
    tracer.patch_function(multipliers, "pd_check", "multipliers.pd_check")
    for attr in ("make_matrix_coeff_multiplier", "make_gilbert_multiplier", "make_endo_multiplier",
                 "multiplier_norm_probe"):
        tracer.patch_function(multipliers, attr, "multipliers.make")

    # summation
    for attr in ("fejer_net", "abel_poisson_net", "approx_data_net", "folner_approx_data",
                 "truncation_radius"):
        tracer.patch_function(summation, attr, "summation.net")
    tracer.patch_function(summation, "run_convergence", "summation.convergence")

    # decay
    for attr in ("decay_constant_probe", "content_probe"):
        tracer.patch_function(decay, attr, "decay.probe")
    for attr in ("commutative_inequality_check", "twisted_inequality_experiment", "tail_profile",
                 "make_weight", "inv_l2_bracket"):
        tracer.patch_function(decay, attr, "decay.other")

    # ideals
    for attr in ("enumerate_invariant_ideals", "orbit_closure", "ideal_membership", "quotient_system",
                 "e_invariance_probe", "central_projection_split", "block_orbits"):
        tracer.patch_function(ideals, attr, "ideals")

    # modules
    tracer.patch_function(modules, "validate_equivariant", "modules.validate")

    # config
    for attr in ("build_system", "build_element", "build_rep", "build_length"):
        tracer.patch_function(config, attr, "config.build")

    # cli
    tracer.patch_function(cli, "run_config", "cli.run_config")
    tracer.patch_function(cli, "write_report", "cli.report")


def layer_metrics(tracer: Tracer, n_tasks: int) -> dict:
    """Per-task means of the layer counters and self times (see layers.json)."""
    st, c = tracer.stats, tracer.counters
    n = max(n_tasks, 1)

    def calls(*names):
        return sum(st[k][0] for k in names if k in st) / n

    def self_s(*names):
        return sum(st[k][1] for k in names if k in st) / n

    def ratio(num, den):
        return num / den if den else 0.0

    action_calls = st["system.action"][0] if "system.action" in st else 0
    cocycle_calls = st["system.cocycle"][0] if "system.cocycle" in st else 0
    compress_calls = st["crossed.compress"][0] if "crossed.compress" in st else 0
    return {
        "groups.ball.self_s": self_s("groups.ball"),
        "groups.ball.points": c["groups.ball.points"] / n,
        "algebra.ops": calls("algebra.op"),
        "algebra.self_s": self_s("algebra.op", "algebra.norm", "algebra.inverse"),
        "algebra.norm.calls": calls("algebra.norm"),
        "algebra.norm.self_s": self_s("algebra.norm"),
        "algebra.inverse.calls": calls("algebra.inverse"),
        "system.action.calls": action_calls / n,
        "system.action.hit_ratio": ratio(action_calls - c["system.action.misses"], action_calls),
        "system.cocycle.calls": cocycle_calls / n,
        "system.cocycle.hit_ratio": ratio(cocycle_calls - c["system.cocycle.misses"], cocycle_calls),
        "system.cache_entries": c["system.cache_entries_max"],
        "system.validate.self_s": self_s("system.validate"),
        "system.validate.triples": c["system.validate.triples"] / n,
        "crossed.product.calls": calls("crossed.product"),
        "crossed.product.terms": c["crossed.product.terms"] / n,
        "crossed.product.self_s": self_s("crossed.product"),
        "crossed.star.self_s": self_s("crossed.star"),
        "crossed.compress.calls": calls("crossed.compress"),
        "crossed.compress.self_s": self_s("crossed.compress"),
        "crossed.compress.dim_max": c["crossed.compress.dim_max"],
        "crossed.compress.dense_bytes": c["crossed.compress.dense_bytes"] / n,
        "crossed.compress.nnz_frac": ratio(c["crossed.compress.nonzeros"], c["crossed.compress.entries"]),
        "crossed.compress.repeat_frac": ratio(c["crossed.compress.repeats"], compress_calls),
        "crossed.svd.calls": calls("crossed.svd"),
        "crossed.svd.dense_calls": c["crossed.svd.dense_calls"] / n,
        "crossed.svd.lanczos_calls": c["crossed.svd.lanczos_calls"] / n,
        "crossed.svd.self_s": self_s("crossed.svd"),
        "multipliers.apply.calls": calls("multipliers.apply"),
        "multipliers.apply.self_s": self_s("multipliers.apply"),
        "multipliers.pd_check.self_s": self_s("multipliers.pd_check"),
        "summation.net.self_s": self_s("summation.net"),
        "summation.convergence.self_s": self_s("summation.convergence"),
        "decay.probe.self_s": self_s("decay.probe"),
        "decay.probe.compressions": c["decay.probe.compressions"] / n,
        "ideals.self_s": self_s("ideals"),
        "modules.validate.self_s": self_s("modules.validate"),
        "config.build.self_s": self_s("config.build"),
        "cli.run_config.calls": calls("cli.run_config"),
        "cli.report.self_s": self_s("cli.report"),
    }
