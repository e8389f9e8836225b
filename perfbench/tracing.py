"""Spans around yaglom's public functions, recorded from outside the library.

``Tracer.install`` wraps the public functions of every yaglom module (and
``NNKernel.rows``) and rebinds each name wherever a yaglom module bound it,
because the modules import functions by name: ``yaglom.cli.evolve_trace``,
``yaglom.conditions.evolve_trace`` and so on all point to the same
function.  ``uninstall`` puts the originals back.  Spans live in memory
until ``write_spans`` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = (
    "cli", "chain", "evolve", "spectral", "transforms",
    "measures", "montecarlo", "conditions", "scenarios",
)


@dataclass
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    layer: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


def _args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _evolve_info(fn, args, kwargs, out) -> dict:
    a = _args(fn, args, kwargs)
    n = int(a["n"])
    half = n if a["max_halfwidth"] is None else min(n, int(a["max_halfwidth"]))
    values = out.distribution.values
    return {
        "steps": n,
        "site_steps": n * (2 * half + 1),
        "nonzero": int(np.count_nonzero(values)),
        "width": int(values.size),
    }


def _paths(count_arg: str | None, steps=None):
    def probe(fn, args, kwargs, out) -> dict:
        a = _args(fn, args, kwargs)
        info = {"paths": 1 if count_arg is None else int(a[count_arg])}
        if steps is not None:
            info["path_steps"] = int(steps(a, out))
        return info

    return probe


# Work counts read from a call's arguments and result, keyed by span name.
PROBES = {
    "evolve.evolve_trace": _evolve_info,
    "spectral.green_partial": lambda fn, a, kw, out: {"terms": out.terms},
    "transforms.estimate_hhat": lambda fn, a, kw, out: {"sites": len(out.table)},
    "transforms.hitting_split": lambda fn, a, kw, out: {"horizon": out.horizon},
    "montecarlo.absorption_times": _paths("n_paths", lambda a, out: out.sum()),
    "montecarlo.empirical_hitting_split": _paths("n_paths"),
    "montecarlo.simulate_absorbed": _paths(None, lambda a, out: len(out.path) - 1),
    "montecarlo.orey_trace": _paths(None, lambda a, out: max(out.positions)),
}


def _public_functions(module):
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, layer: str, fn):
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None,
                        self.run, name, layer, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span.info = probe(fn, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"yaglom.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, fn in _public_functions(module):
                wrappers[fn] = self.wrap(f"{layer}.{name}", layer, fn)
        holders = modules + [importlib.import_module("yaglom")]
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((holder, attr, value))
                    setattr(holder, attr, wrappers[value])
        nnk = modules[LAYERS.index("chain")].NNKernel
        self._restore.append((nnk, "rows", nnk.rows))
        nnk.rows = self.wrap("chain.rows", "chain", nnk.rows)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore.clear()


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    do not overlap one another.
    """
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def layer_busy(spans: list[Span]) -> dict[str, float]:
    """Wall time each layer had a call open: the durations of its spans that
    have no enclosing span of the same layer."""
    by_id = {s.id: s for s in spans}
    busy = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        p = s.parent
        while p is not None and by_id[p].layer != s.layer:
            p = by_id[p].parent
        if p is None:
            busy[s.layer] = busy.get(s.layer, 0.0) + s.end - s.start
    return busy


def layer_metrics(spans: list[Span], bytes_written: int) -> dict[str, float]:
    """The per-layer metrics of one traced iteration."""
    own = self_times(spans)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        self_s[s.layer] += own[s.id]
    busy = layer_busy(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(items, key=None):
        if key is None:
            return sum(s.end - s.start for s in items)
        return sum(s.info.get(key, 0) for s in items)

    rows, evolve, green = named("chain.rows"), named("evolve.evolve_trace"), named("spectral.green_partial")
    hhat, split = named("transforms.estimate_hhat"), named("transforms.hitting_split")
    mc = [s for s in spans if s.layer == "montecarlo"]
    site_steps, width = total(evolve, "site_steps"), total(evolve, "width")
    return {
        "cli.self_s": self_s["cli"],
        "cli.bytes_written": bytes_written,
        "chain.rows_calls": len(rows),
        "chain.rows_s": total(rows),
        "evolve.calls": len(evolve),
        "evolve.busy_s": busy["evolve"],
        "evolve.steps": total(evolve, "steps"),
        "evolve.site_steps": site_steps,
        "evolve.ns_per_site_step": 1e9 * total(evolve) / site_steps if site_steps else 0.0,
        "evolve.live_fraction": total(evolve, "nonzero") / width if width else 0.0,
        "spectral.green_calls": len(green),
        "spectral.green_terms": total(green, "terms"),
        "spectral.green_s": total(green),
        "spectral.rho_s": total(named("spectral.estimate_rho")),
        "transforms.hhat_s": total(hhat),
        "transforms.hhat_sites": total(hhat, "sites"),
        "transforms.split_s": total(split),
        "transforms.split_horizon": total(split, "horizon"),
        "measures.busy_s": busy["measures"],
        "montecarlo.busy_s": busy["montecarlo"],
        "montecarlo.paths_per_s": total(mc, "paths") / busy["montecarlo"] if busy["montecarlo"] else 0.0,
        "montecarlo.path_steps": total(mc, "path_steps"),
        "conditions.self_s": self_s["conditions"],
        "scenarios.self_s": self_s["scenarios"],
    }
