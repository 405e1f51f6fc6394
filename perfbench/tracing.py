"""In-process span tracing of the kickedharper modules, and fixed-size layer figures.

The tracer wraps the public module-level functions of `spectrum`, `quantum`,
`lattice`, `analysis` and `classical`, plus `lattice.Wavepacket.doubled`,
and notes the largest lattice that `quantum.apply_floquet` returns.
In `cli` only `main` is wrapped, so its self time is the CLI's own work:
config parsing and CSV/JSON formatting.  A wrapped function is replaced in
every kickedharper namespace that holds it, so calls through `from . import`
names are traced as well.

Each call records a span (name, start, end, parent) in flat arrays; nothing
is written until the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "spectrum", "quantum", "lattice", "analysis", "classical")


def _modules():
    import kickedharper  # noqa: F401  (loads every layer)
    return {name: sys.modules[f"kickedharper.{name}"] for name in LAYERS}


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.max_sites = 0
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, qualname: str, fn, on_result=None):
        idx = len(self.names)
        self.names.append(qualname)
        clock = time.perf_counter
        stack, span_name, start, end, parent = (
            self._stack, self.span_name, self.start, self.end, self.parent)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(span_name)
            span_name.append(idx)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def _note_sites(self, psi):
        self.max_sites = max(self.max_sites, psi.n_sites)

    def install(self):
        mods = _modules()
        namespaces = [m.__dict__ for n, m in sys.modules.items()
                      if n == "kickedharper" or n.startswith("kickedharper.")]
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or (layer == "cli" and name != "main")):
                    continue
                qualname = f"{layer}.{name}"
                wrapped = self._wrap(qualname, obj, self._note_sites
                                     if qualname == "quantum.apply_floquet" else None)
                for ns in namespaces:
                    for key, val in list(ns.items()):
                        if val is obj:
                            self._patches.append((ns, key, obj))
                            ns[key] = wrapped
        wp = mods["lattice"].Wavepacket
        original = wp.__dict__["doubled"]
        self._patches.append((wp, "doubled", original))
        setattr(wp, "doubled", self._wrap("lattice.Wavepacket.doubled", original))

    def uninstall(self):
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.span_name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int32)}

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per wrapped name: {"calls": n, "self_s": seconds}."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(a["name"], minlength=n_names)
        self_s = np.bincount(a["name"], weights=self_time, minlength=n_names)
        return {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}


def clear_caches():
    """Empty every lru_cache in the package so each pass starts cold alike."""
    for mod in _modules().values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _median_time(fn, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def layer_figures() -> dict:
    """Fixed-size per-call figures from direct calls, after one warm-up call each.

    The warm-up keeps one-off costs (BLAS thread start-up, FFT plans, lru
    caches) out of the figures; the end-to-end CLI runs still pay them.
    """
    from kickedharper import (DKRM_RESONANT, KHM, ModelSpec, Wavepacket,
                              apply_floquet, build_bloch_matrix, floquet_factors,
                              kick_coefficients, parse_effective_planck,
                              quasienergies)
    from kickedharper.quantum import KickFactor

    fib = parse_effective_planck("2pi*89/233")
    theta = 0.3
    out = {}
    for label, model, repeats in (("P233", ModelSpec(KHM, 1.0, 1.0, fib), 9),
                                  ("P466", ModelSpec(DKRM_RESONANT, 1.0, 1.0, fib), 5)):
        coeffs = {f.strength: kick_coefficients(f.strength)
                  for f in floquet_factors(model) if isinstance(f, KickFactor)}
        block = build_bloch_matrix(model, theta, coeffs)
        quasienergies(block)
        out[f"spectrum.quasienergies.ms_per_block.{label}"] = 1e3 * _median_time(
            lambda: quasienergies(block), repeats)
        if label == "P466":
            out["spectrum.build_bloch_matrix.ms_per_block.P466"] = 1e3 * _median_time(
                lambda: build_bloch_matrix(model, theta, coeffs), repeats)

    model = ModelSpec(DKRM_RESONANT, 1.8, 1.8, parse_effective_planck("2pi*3/19"))
    for n_sites, periods in ((256, 400), (4096, 100)):
        psi0 = Wavepacket.delta(n_sites=n_sites, hbar_eff=model.hbar_eff)

        def periods_run(psi=psi0, count=periods):
            for _ in range(count):
                psi = apply_floquet(model, psi)

        periods_run(count=10)
        out[f"quantum.apply_floquet.us_per_period.n{n_sites}"] = (
            1e6 * _median_time(periods_run, 5) / periods)

    return out
