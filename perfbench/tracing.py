"""Traced run: spans around the calls into each qedge layer, made from outside the library.

Each wrapped function is replaced in every qedge module that holds it, so calls
made through a name imported into another module are traced as well.  Spans
(name, parent, start, end) are kept in memory and written out when the run
ends; per-layer metrics are computed from them per round.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from collections import defaultdict

MB = float(1 << 20)

# Span name -> (module, function).  The span's layer is the text before the dot.
SPANS = {
    "combinatorics.priors": ("qedge.combinatorics", "priors"),
    "gram.build_gram_unknown": ("qedge.gram", "build_gram_unknown"),
    "gram.build_gram_known": ("qedge.gram", "build_gram_known"),
    "linalg.psd_sqrt": ("qedge.linalg", "psd_sqrt"),
    "linalg.solve_discrimination_sdp": ("qedge.linalg", "solve_discrimination_sdp"),
    "discrimination.success_curve": ("qedge.discrimination", "success_curve"),
    "discrimination.total_success": ("qedge.discrimination", "total_success"),
    "discrimination.scenario_blocks": ("qedge.discrimination", "scenario_blocks"),
    "discrimination.srm_block": ("qedge.discrimination", "srm_block"),
    "discrimination.optimal_block": ("qedge.discrimination", "optimal_block"),
    "asymptotics.pade": ("qedge.asymptotics", "pade"),
    "asymptotics.p0_via_integral": ("qedge.asymptotics", "p0_via_integral"),
    "asymptotics.p0_via_primitive": ("qedge.asymptotics", "p0_via_primitive"),
    "asymptotics.p0_known": ("qedge.asymptotics", "p0_known"),
    # the AGM kernel that p0_known's integrand calls (elliptic_k wraps it too)
    "asymptotics.elliptic": ("qedge.asymptotics", "_elliptic_k_from_complement"),
    "asymptotics.estimate_low_order_coeffs": ("qedge.asymptotics", "estimate_low_order_coeffs"),
}
# Counted, not spanned: one call per barrier evaluation inside the SDP's Newton loop.
COUNTED = {"linalg.barrier_evals": ("qedge.linalg", "_barrier_phi")}

PER_LAYER = [
    ("combinatorics.priors_s", "s"), ("combinatorics.priors_calls", "count"),
    ("gram.build_s", "s"), ("gram.blocks", "count"), ("gram.dense_mb", "MB"),
    ("linalg.sqrt_s", "s"), ("linalg.sqrt_calls", "count"),
    ("linalg.sdp_s", "s"), ("linalg.sdp_calls", "count"),
    ("linalg.newton_steps", "count"), ("linalg.barrier_evals", "count"),
    ("discrimination.self_s", "s"), ("discrimination.floor_blocks", "count"),
    ("discrimination.held_mb", "MB"),
    ("asymptotics.pade_s", "s"), ("asymptotics.pade_calls", "count"),
    ("asymptotics.limit_s", "s"), ("asymptotics.elliptic_s", "s"),
    ("asymptotics.estimate_s", "s"),
    ("process.cpu_s", "s"), ("process.wall_s", "s"),
]


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Wraps qedge's layer functions and records one list of spans per round."""

    def __init__(self) -> None:
        self.rounds: list[dict] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for name, (mod, attr) in SPANS.items():
            self._replace(mod, attr, self._spanned(name, getattr(sys.modules[mod], attr)))
        for name, (mod, attr) in COUNTED.items():
            self._replace(mod, attr, self._counted(name, getattr(sys.modules[mod], attr)))

    def _replace(self, mod: str, attr: str, wrapper) -> None:
        original = getattr(sys.modules[mod], attr)
        for name, module in list(sys.modules.items()):
            if (name == "qedge" or name.startswith("qedge.")) and getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    def begin_round(self) -> None:
        self._round = {"spans": [], "counts": defaultdict(int), "bytes": {}, "values": {},
                       "wall0": time.perf_counter(), "cpu0": _cpu_s()}
        self._stack.clear()

    def end_round(self) -> None:
        r = self._round
        r["wall_s"] = time.perf_counter() - r.pop("wall0")
        r["cpu_s"] = _cpu_s() - r.pop("cpu0")
        self.rounds.append(r)

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            spans = self._round["spans"]
            sid = len(spans)
            span = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None]
            spans.append(span)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[3] = time.perf_counter()
            self._observe(name, sid, out)
            return out

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._round["counts"][name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe(self, name: str, sid: int, out) -> None:
        """Record what a span's result says: dense bytes built, Newton steps, and
        the values an SRM floor compares."""
        r = self._round
        if name.startswith("gram.build_gram"):
            r["bytes"][sid] = out.dense.nbytes
        elif name == "linalg.solve_discrimination_sdp":
            r["counts"]["linalg.newton_steps"] += out.iterations
            r["values"][sid] = out.primal_value
        elif name == "discrimination.optimal_block":
            r["values"][sid] = out[0]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, each the median over rounds (counts repeat exactly)."""
        per_round = [_round_metrics(r) for r in self.rounds]
        return {name: statistics.median_low(m[name] for m in per_round)
                for name, _ in PER_LAYER}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, r in enumerate(self.rounds):
                for sid, (name, parent, start, end) in enumerate(r["spans"]):
                    fh.write(json.dumps({"round": i, "id": sid, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")


def _round_metrics(r: dict) -> dict[str, float]:
    spans = r["spans"]
    child_time = [0.0] * len(spans)
    children = defaultdict(list)
    for sid, (_, parent, start, end) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            children[parent].append(sid)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, (name, _, start, end) in enumerate(spans):
        self_s[name] += end - start - child_time[sid]
        calls[name] += 1

    def total(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix))

    def ncalls(prefix: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(prefix))

    # SRM floor: optimal_block returned more than its barrier solve's primal value
    floors = 0
    for sid, (name, *_rest) in enumerate(spans):
        if name == "discrimination.optimal_block":
            inner = [r["values"][c] for c in children[sid] if c in r["values"]]
            if inner and r["values"][sid] > inner[0]:
                floors += 1
    # dense bytes held by one total: blocks built under each total_success span
    held: dict[int, int] = defaultdict(int)
    for sid, nbytes in r["bytes"].items():
        parent = spans[sid][1]
        while parent is not None and spans[parent][0] != "discrimination.total_success":
            parent = spans[parent][1]
        if parent is not None:
            held[parent] += nbytes
    return {
        "combinatorics.priors_s": total("combinatorics.priors"),
        "combinatorics.priors_calls": ncalls("combinatorics.priors"),
        "gram.build_s": total("gram."),
        "gram.blocks": ncalls("gram."),
        "gram.dense_mb": sum(r["bytes"].values()) / MB,
        "linalg.sqrt_s": total("linalg.psd_sqrt"),
        "linalg.sqrt_calls": ncalls("linalg.psd_sqrt"),
        "linalg.sdp_s": total("linalg.solve_discrimination_sdp"),
        "linalg.sdp_calls": ncalls("linalg.solve_discrimination_sdp"),
        "linalg.newton_steps": r["counts"]["linalg.newton_steps"],
        "linalg.barrier_evals": r["counts"]["linalg.barrier_evals"],
        "discrimination.self_s": total("discrimination."),
        "discrimination.floor_blocks": floors,
        "discrimination.held_mb": max(held.values(), default=0) / MB,
        "asymptotics.pade_s": total("asymptotics.pade"),
        "asymptotics.pade_calls": ncalls("asymptotics.pade"),
        "asymptotics.limit_s": total("asymptotics.p0_"),
        "asymptotics.elliptic_s": total("asymptotics.elliptic"),
        "asymptotics.estimate_s": total("asymptotics.estimate_low_order_coeffs"),
        "process.cpu_s": r["cpu_s"],
        "process.wall_s": r["wall_s"],
    }
