"""Spans around calls into the package's layers, recorded from outside.

The package modules import names directly (`from .exact import mat_mul`), so
a function is wrapped in every module namespace that binds it; `IntMatrix.det`
is wrapped on the class.  Each call records a span (parent span, job, name,
start, end, info) in memory; `per_batch` turns the spans of each batch into
calls, self time (span minus the spans it directly contains) and the layer's
counters.  Nothing in the package is modified on disk.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter


def _max_bits(M) -> int:
    hi = max((max(row) for row in M.entries), default=0)
    lo = min((min(row) for row in M.entries), default=0)
    return max(abs(hi), abs(lo)).bit_length()


# layer name -> what a span records from (args, result), or None
LAYERS = {
    "exact.char_poly": lambda a, r: a[0].rows,
    "exact.mat_mul": lambda a, r: _max_bits(r),
    "exact.cyclotomic_part": None,
    "exact.det": None,
    "exact.quotient_module": None,
    "exact.solve_exact": None,
    "exterior.wedge3_map": None,
    "exterior.induced_action": None,
    "exterior.johnson_target": None,
    "exterior.relative_target": None,
    "symplectic.is_symplectic": None,
    "symplectic.transvection": None,
    "mapclass.evaluate": None,
    "mapclass.preserves_lattice": None,
    "engine.preset": None,
    "engine.growing_vector_test": None,
    "engine.witness_certificate": None,
    "engine.search_partially_hyperbolic": lambda a, r: r is not None,
    "oracle.finite_closure": lambda a, r: r.order,
    "oracle.bfs_ball": lambda a, r: len(r),
    "cli.main": None,
}


class Tracer:
    def __init__(self, modules: dict, monitor):
        """`modules` maps short names ("exact", "cli", ...) to the imported
        package modules whose functions get wrapped; `monitor` tracks peak
        memory during closures."""
        self.modules = modules
        self.monitor = monitor
        self.spans = []           # [parent, job, name, start, end, info]
        self.job = -1
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack
        sampled = name == "oracle.finite_closure"

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [stack[-1] if stack else -1, self.job, name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(idx)
            rss = self.monitor.watch_rss() if sampled else None
            rec[3] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter()
                stack.pop()
                if sampled:
                    rss = self.monitor.peak_rss() - rss
            if info is not None:
                rec[5] = info(args, out)
            if sampled:
                rec[5] = (rec[5], rss)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, info in LAYERS.items():
            modname, fname = name.split(".")
            if fname == "det":
                cls = self.modules["exact"].IntMatrix
                self._patch(cls, "det", self._wrap(name, cls.det, info))
                continue
            orig = getattr(self.modules[modname], fname)
            wrapper = self._wrap(name, orig, info)
            for mod in self.modules.values():
                if mod.__dict__.get(fname) is orig:
                    self._patch(mod, fname, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, _, _, start, end, _ in self.spans]
        for (parent, *_), dur in zip(self.spans, list(own)):
            if parent >= 0:
                own[parent] -= dur
        return own

    def per_batch(self, batch_of_job: dict) -> list[dict]:
        """Layer statistics of each batch, in batch order."""
        self_s = self._self_times()
        batches = {}
        for idx, (parent, job, name, start, end, info) in enumerate(self.spans):
            b = batches.setdefault(batch_of_job[job], {})
            s = b.setdefault(name, {"calls": 0, "self_s": 0.0, "infos": []})
            s["calls"] += 1
            s["self_s"] += self_s[idx]
            if info is not None:
                s["infos"].append(info)
            if name == "exact.char_poly" and parent >= 0 \
                    and self.spans[parent][2] == "engine.search_partially_hyperbolic":
                b.setdefault("search.candidates", 0)
                b["search.candidates"] += 1
        return [batches.get(k, {}) for k in sorted(set(batch_of_job.values()))]

    def breakdown(self, batch: int, batch_of_job: dict, job_names: list) -> dict:
        """For one batch: calls, self and inclusive seconds per (layer, calling
        layer), and each job's calls and inclusive seconds per layer."""
        self_s = self._self_times()
        by_parent, by_job = {}, {}
        for idx, (parent, job, name, start, end, _) in enumerate(self.spans):
            if batch_of_job[job] != batch:
                continue
            caller = self.spans[parent][2] if parent >= 0 else "-"
            s = by_parent.setdefault(f"{name} <- {caller}", [0, 0.0, 0.0])
            s[0] += 1
            s[1] += self_s[idx]
            s[2] += end - start
            j = by_job.setdefault(job_names[job % len(job_names)], {}).setdefault(name, [0, 0.0])
            j[0] += 1
            j[1] += end - start
        return {"fields": ["calls", "self_s", "incl_s"], "by_caller": by_parent,
                "job_fields": ["calls", "incl_s"], "by_job": by_job}

    def write(self, path, job_names: list):
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["parent", "job", "name", "start", "end", "info"],
                                 "jobs": job_names}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(batch: dict, speed: float = 1.0) -> dict:
    """The per-layer metric values of one batch; times are divided by the
    batch's speed factor, as the end-to-end ones are."""
    out = {}
    for name in LAYERS:
        s = batch.get(name, {"calls": 0, "self_s": 0.0, "infos": []})
        s = {**s, "self_s": s["self_s"] / speed}
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
        infos = s["infos"]
        if name == "exact.char_poly":
            out[f"{name}.max_rank"] = max(infos, default=0)
        elif name == "exact.mat_mul":
            out[f"{name}.max_bits"] = max(infos, default=0)
        elif name == "engine.search_partially_hyperbolic":
            cand = batch.get("search.candidates", 0)
            out["engine.search.candidates"] = cand
            out["engine.search.candidates_per_hit"] = cand / max(1, sum(infos))
        elif name == "oracle.finite_closure":
            # memory growth over the largest closure, per state it holds
            states = sum(order for order, _ in infos)
            out[f"{name}.states"] = states
            out[f"{name}.states_per_s"] = states / s["self_s"] if s["self_s"] else 0.0
            biggest = max(infos, default=None)
            out[f"{name}.bytes_per_state"] = biggest[1] / biggest[0] if biggest else 0.0
        elif name == "oracle.bfs_ball":
            out[f"{name}.states"] = sum(infos)
            out[f"{name}.states_per_s"] = sum(infos) / s["self_s"] if s["self_s"] else 0.0
    return out


UNITS = {"calls": "count", "self_s": "s", "max_rank": "rows", "max_bits": "bits",
         "candidates": "count", "candidates_per_hit": "count", "states": "count",
         "states_per_s": "1/s", "bytes_per_state": "B"}
