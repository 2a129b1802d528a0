"""Traced runs: wrap library functions from outside and record where time goes.

Each function a caller looks up across a module boundary is replaced, for the
traced phase only, by a wrapper that times it.  A wrapper of kind SPAN also
keeps a span (name, start, end, parent span, op id) in memory; a TALLY wrapper,
used for functions called hundreds of thousands of times per op, only adds to
its layer's call count and self time.  Self time is a call's duration minus
the time spent in wrapped callees.  Every lru_cache in the package is
snapshotted before and after each op.  A name missing from the library is
recorded as absent, never raised.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

SPAN, TALLY = "span", "tally"
#: Spans kept in memory; later ones are counted as dropped.
MAX_SPANS = 100_000


def _terms_out(args, result):
    return len(result.terms)


def _draws(args, result):
    return len(result) if result.ndim == 2 else 1


def _restarts(args, result):
    return result.restarts_used


def _nbytes(args, result):
    return result.nbytes


#: (module, attribute, layer, kind, count).  `attribute` may name a method as
#: "Class.method".  `count(args, result)` adds to the layer's amount, except
#: that _nbytes is kept per distinct argument tuple (a cache's working set).
WRAPPED = (
    ("channel", "_apply_linear", "channel.apply", SPAN, None),
    ("channel", "_channel_on_projector_cached", "channel.pipeline", SPAN, None),
    ("channel", "apply_diffusion_step", "channel.diffusion", SPAN, None),
    ("channel", "monte_carlo_channel", "channel.mc", SPAN, None),
    ("coupling", "_twirl_linear", "coupling.twirl", SPAN, None),
    ("coupling", "expansion_from_twirled", "coupling.expand", SPAN, None),
    ("coupling", "convention_shift", "coupling.shift", SPAN, _terms_out),
    ("coupling", "ProjectorExpansion.dense", "coupling.dense", SPAN, None),
    ("coupling", "_projector_cached", "coupling.projector", TALLY, _nbytes),
    ("coupling", "recoupling_u", "wigner.recoupling", TALLY, None),
    ("su2", "haar_quat", "su2.sample", TALLY, _draws),
    ("su2", "heat_kernel_quat", "su2.sample", TALLY, _draws),
    ("three_qubit", "maximize_coherent_info", "three_qubit.solve", SPAN, None),
    ("three_qubit", "maximize_holevo", "three_qubit.solve", SPAN, None),
    ("three_qubit", "_ci_fast", "three_qubit.objective", TALLY, None),
    ("three_qubit", "_chi_fast", "three_qubit.objective", TALLY, None),
    ("numerics", "nelder_mead_maximize", "numerics.nm", SPAN, _restarts),
    ("numerics", "_entropy_fast", "numerics.entropy", TALLY, None),
)

SIXJ = "su2drift.wigner._sixj_t"
RCOEFF = "su2drift.channel._r_coefficient_t"
PIPELINE = "su2drift.channel._channel_on_projector_cached"
PROJECTOR = "su2drift.coupling._projector_cached"


class Tracer:
    """Span and counter collector for one traced phase of one process."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent span id, op id)
        self.dropped = 0
        self.stats = {}  # layer -> [calls, self seconds, amount]
        self.distinct = {}  # layer -> {args: bytes}
        self.absent = []
        self.op = None
        self._frames = []  # [child seconds] per active wrapped call
        self._span_ids = []  # ids of active spans, innermost last
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)
        self.caches = {}  # qualified name -> lru_cache object
        self.cache_ops = []  # per op: {cache: [hits, misses, currsize]}
        self._before = None

    # --- installing the wrappers ------------------------------------------

    def install(self):
        """Find the package's lru_caches, then wrap every name in WRAPPED."""
        modules = {m: importlib.import_module(f"su2drift.{m}") for m in
                   ("halfint", "wigner", "su2", "coupling", "channel", "three_qubit", "numerics")}
        for mod in modules.values():
            for obj in vars(mod).values():
                if hasattr(obj, "cache_info") and hasattr(obj, "__qualname__"):
                    self.caches[f"{obj.__module__}.{obj.__qualname__}"] = obj
        for mod_name, attr, layer, kind, count in WRAPPED:
            owner = modules.get(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self.stats.setdefault(layer, [0, 0.0, 0])
            setattr(owner, leaf, self._wrap(original, f"{mod_name}.{attr}", layer, kind, count))
            self._patched.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()

    def _wrap(self, fn, name, layer, kind, count):
        frames, span_ids, stats = self._frames, self._span_ids, self.stats[layer]
        distinct = self.distinct.setdefault(layer, {}) if count is _nbytes else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:  # outside an op, e.g. in an output check
                return fn(*args, **kwargs)
            if kind is SPAN:
                span_id = self._next_id
                self._next_id += 1
                parent = span_ids[-1] if span_ids else None
                span_ids.append(span_id)
            frame = [0.0]
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                if frames:
                    frames[-1][0] += duration
                stats[0] += 1
                stats[1] += duration - frame[0]
                if kind is SPAN:
                    span_ids.pop()
                    self._record(name, start, end, span_id, parent)
            if distinct is not None:
                distinct[args] = count(args, result)
            elif count is not None:
                stats[2] += count(args, result)
            return result

        return wrapper

    def _record(self, name, start, end, span_id, parent):
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    # --- per-op bracketing --------------------------------------------------

    def _snapshot(self):
        return {name: c.cache_info() for name, c in self.caches.items()}

    def begin_op(self, op_id: int):
        self._before = self._snapshot()
        self.op = op_id
        self._op_span = self._next_id
        self._next_id += 1
        self._span_ids.append(self._op_span)
        self._frames.append([0.0])
        self._op_start = perf_counter()

    def end_op(self):
        end = perf_counter()
        self._frames.pop()
        self._span_ids.pop()
        self._record("op", self._op_start, end, self._op_span, None)
        after = self._snapshot()
        self.cache_ops.append({
            name: [after[name].hits - self._before[name].hits,
                   after[name].misses - self._before[name].misses,
                   after[name].currsize]
            for name in after
        })
        self.op = None

    # --- results ------------------------------------------------------------

    def _cache_total(self, name):
        if name not in self.caches:
            return None
        hits = sum(op[name][0] for op in self.cache_ops)
        misses = sum(op[name][1] for op in self.cache_ops)
        return hits, misses

    def layer_metrics(self) -> tuple:
        """Per-op layer metrics, the metrics absent, and the idle hit ratios.

        Counts of unused layers read 0.  A hit ratio with no lookups reads 0
        and is listed as idle; a metric whose function or cache is missing
        reads 0 and is listed as absent.
        """
        n_ops = max(len(self.cache_ops), 1)
        out, absent, idle = {}, [], []

        def layer(metric, name, field):
            if name not in self.stats:
                absent.append(metric)
                out[metric] = 0.0
            else:
                out[metric] = self.stats[name][field] / n_ops

        def cache(metric, name, kind):
            total = self._cache_total(name)
            if total is None:
                absent.append(metric)
                out[metric] = 0.0
                return
            hits, misses = total
            if kind == "evals":
                out[metric] = misses / n_ops
            elif hits + misses:
                out[metric] = hits / (hits + misses)
            else:
                out[metric] = 0.0
                idle.append(metric)

        cache("wigner.sixj_evals", SIXJ, "evals")
        cache("wigner.sixj_hit_ratio", SIXJ, "ratio")
        layer("wigner.recoupling_calls", "wigner.recoupling", 0)
        layer("wigner.recoupling_s", "wigner.recoupling", 1)
        cache("channel.r_coeff_evals", RCOEFF, "evals")
        cache("channel.r_coeff_hit_ratio", RCOEFF, "ratio")
        cache("channel.pipeline_hit_ratio", PIPELINE, "ratio")
        layer("channel.diffusion_calls", "channel.diffusion", 0)
        layer("channel.diffusion_s", "channel.diffusion", 1)
        layer("channel.apply_self_s", "channel.apply", 1)
        layer("channel.mc_self_s", "channel.mc", 1)
        layer("coupling.twirl_calls", "coupling.twirl", 0)
        layer("coupling.twirl_s", "coupling.twirl", 1)
        layer("coupling.expand_s", "coupling.expand", 1)
        layer("coupling.shift_calls", "coupling.shift", 0)
        layer("coupling.shift_terms", "coupling.shift", 2)
        layer("coupling.shift_s", "coupling.shift", 1)
        layer("coupling.dense_s", "coupling.dense", 1)
        if PROJECTOR in self.caches:
            out["coupling.projector_cache_entries"] = float(self.caches[PROJECTOR].cache_info().currsize)
        else:
            absent.append("coupling.projector_cache_entries")
            out["coupling.projector_cache_entries"] = 0.0
        if "coupling.projector" in self.distinct:
            out["coupling.projector_cache_mb_computed"] = (
                sum(self.distinct["coupling.projector"].values()) / 2**20
            )
        else:
            absent.append("coupling.projector_cache_mb_computed")
            out["coupling.projector_cache_mb_computed"] = 0.0
        layer("su2.draws", "su2.sample", 2)
        layer("su2.sample_s", "su2.sample", 1)
        layer("three_qubit.objective_evals", "three_qubit.objective", 0)
        layer("three_qubit.objective_s", "three_qubit.objective", 1)
        layer("numerics.entropy_evals", "numerics.entropy", 0)
        layer("numerics.entropy_s", "numerics.entropy", 1)
        layer("numerics.nm_restarts", "numerics.nm", 2)
        layer("numerics.nm_s", "numerics.nm", 1)
        return out, absent, idle

    def write(self, path, **header):
        """Write spans, per-op cache deltas and the wrapped-name table."""
        doc = dict(header)
        doc.update(
            wrapped=[f"{m}.{a}" for m, a, *_ in WRAPPED],
            absent=self.absent,
            span_fields=["id", "name", "start", "end", "parent", "op"],
            spans=self.spans,
            spans_dropped=self.dropped,
            cache_fields=["hits", "misses", "currsize"],
            caches_per_op=self.cache_ops,
        )
        with open(path, "w") as fh:
            json.dump(doc, fh)
