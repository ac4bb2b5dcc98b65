"""Spans around the names each thouless_lab module imports from the module below it.

The library is measured from outside: `Tracer.install` replaces module
attributes (for example ``thouless_lab.currents.transmittance_n``, the name
``currents`` calls) with wrappers that record a span per call, and
`Tracer.uninstall` puts the originals back.  Nothing in the library changes.

A span records its name, start, end, parent span and request id.  Span
stacks are per thread; a span opened on a pool thread with an empty stack
takes the open ``cli._parallel_grid`` span as its parent, because that is
the call that handed the work to the pool.  Spans stay in memory until
`layer_metrics` reduces them.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# (module, attribute, span name, what the size field counts)
#   "E"      number of energies in the last positional argument
#   "bytes"  length of the returned text
#   None     nothing
BOUNDARIES = (
    ("jacobi", "_one_period_abcd", "jacobi._one_period_abcd", "E"),
    ("jacobi", "band_spectrum", "jacobi.band_spectrum", None),
    ("leads", "_one_period_abcd", "leads._one_period_abcd", "E"),
    ("transport", "_one_period_abcd", "transport._one_period_abcd", "E"),
    ("transport", "lead_F_values", "transport.lead_F_values", "E"),
    ("transport", "_crystal_m_values", "transport._crystal_m_values", "E"),
    ("currents", "band_spectrum", "currents.band_spectrum", None),
    ("currents", "transmittance_n", "currents.transmittance_n", "E"),
    ("currents", "transmittance_inf", "currents.transmittance_inf", "E"),
    ("selfcheck", "transmittance_oracle", "selfcheck.transmittance_oracle", None),
    ("selfcheck", "transmittance_n", "selfcheck.transmittance_n", "E"),
    ("selfcheck", "band_spectrum", "selfcheck.band_spectrum", None),
    ("selfcheck", "crystalline_currents", "selfcheck.crystalline_currents", None),
    ("selfcheck", "thouless_currents", "selfcheck.thouless_currents", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "_parallel_grid", "cli._parallel_grid", None),
    ("cli", "band_spectrum", "cli.band_spectrum", None),
    ("cli", "transmittance_n", "cli.transmittance_n", "E"),
    ("cli", "transmittance_inf", "cli.transmittance_inf", "E"),
    ("cli", "_r_theta_values", "cli._r_theta_values", "E"),
    ("cli", "_table", "cli._table", "bytes"),
    ("cli", "_emit", "cli._emit", None),
)

# run_selfcheck looks its checks up as selfcheck module globals.
SELFCHECK_CHECKS = (
    "oracle_equivalence",
    "graph_map",
    "m_identities",
    "conservation_entropy",
    "thouless_dominance",
    "matched_reflectionless",
)

POOL_SPAN = "cli._parallel_grid"

# Library calls the currents workload makes; their spans carry the currents
# module's own time.
CURRENT_CALLS = (
    "thouless_currents",
    "crystalline_currents",
    "lb_currents",
    "zero_temperature_conductance",
)


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None
    size: int
    error: str | None


class Tracer:
    """Records spans while `active`; counts integrand evaluations as a plain counter."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.request: int | None = None
        self.integrand_calls = 0
        self.integrand_points = 0
        self.failed_points = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pool_parent: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for mod_name, attr, name, size in BOUNDARIES:
            self._patch(mod_name, attr, self._span_wrapper(name, size))
        for check in SELFCHECK_CHECKS:
            self._patch(
                "selfcheck", f"check_{check}", self._span_wrapper(f"selfcheck.{check}", None)
            )
        self._patch("currents", "weights", self._integrand_counter)

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def _patch(self, mod_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"thouless_lab.{mod_name}")
        orig = getattr(module, attr)
        setattr(module, attr, make(orig))
        self._patched.append((module, attr, orig))

    def _integrand_counter(self, orig):
        def wrapper(thermo, E):
            if self.active:
                n = int(np.size(E))
                if n:
                    self.integrand_calls += 1
                    self.integrand_points += n
            return orig(thermo, E)

        return wrapper

    def _span_wrapper(self, name: str, size_kind):
        def make(orig):
            def wrapper(*args, **kwargs):
                if not self.active:
                    return orig(*args, **kwargs)
                rec = self._open(name)
                error = None
                try:
                    result = orig(*args, **kwargs)
                except BaseException as exc:
                    error = type(exc).__name__
                    raise
                finally:
                    self._close(rec, error)
                if size_kind == "E":
                    rec.size = int(np.size(args[-1]))
                elif size_kind == "bytes":
                    rec.size = len(result)
                return result

            return wrapper

        return make

    # -- spans ----------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        error = None
        try:
            yield rec
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._close(rec, error)

    def _open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self._pool_parent
        rec = Span(next(self._ids), name, time.perf_counter(), 0.0, parent, self.request, 0, None)
        stack.append(rec.sid)
        if name == POOL_SPAN:
            self._pool_parent = rec.sid
        return rec

    def _close(self, rec: Span, error: str | None) -> None:
        rec.end = time.perf_counter()
        rec.error = error
        self._stack().pop()
        if rec.name == POOL_SPAN:
            self._pool_parent = None
        self.spans.append(rec)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce the recorded spans to the per-layer metrics named in BENCHMARK.json.

    The benchmark's own calls into the library are spans named
    ``bench.<function>``; the ones into ``currents`` carry that module's self
    time.
    """
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def group(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def calls(*names):
        return float(len(group(*names)))

    def size(*names):
        return float(sum(s.size for s in group(*names)))

    def dur(*names):
        return float(sum(s.end - s.start for s in group(*names)))

    def self_s(*names):
        return float(sum(own[s.sid] for s in group(*names)))

    kernel = ("jacobi._one_period_abcd", "leads._one_period_abcd", "transport._one_period_abcd")
    tn = ("cli.transmittance_n", "currents.transmittance_n", "selfcheck.transmittance_n",
          "bench.transmittance_n")
    tinf = ("cli.transmittance_inf", "currents.transmittance_inf")
    bands = ("jacobi.band_spectrum", "currents.band_spectrum", "selfcheck.band_spectrum",
             "cli.band_spectrum")
    oracle = ("selfcheck.transmittance_oracle", "bench.transmittance_oracle")
    current_calls = tuple(f"bench.{n}" for n in CURRENT_CALLS)
    current_calls += ("selfcheck.crystalline_currents", "selfcheck.thouless_currents")
    reports = group(*current_calls)
    failed_reports = [s for s in reports if s.error == "QuadratureError"]

    t_energies = size(*tn) + size(*tinf)
    t_calls = calls(*tn) + calls(*tinf)
    oracle_calls = calls(*oracle)
    metrics = {
        "jacobi.kernel_calls": calls(*kernel),
        "jacobi.kernel_energies": size(*kernel),
        "jacobi.kernel_s": dur(*kernel),
        "jacobi.kernel_energies_per_output": size(*kernel) / max(t_energies, 1.0),
        "jacobi.band_spectrum_calls": calls(*bands),
        "jacobi.band_spectrum_s": dur(*bands),
        "leads.F_calls": calls("transport.lead_F_values"),
        "leads.F_energies": size("transport.lead_F_values"),
        "leads.F_s": dur("transport.lead_F_values"),
        "transport.tn_calls": calls(*tn),
        "transport.tn_energies": size(*tn),
        "transport.tn_self_s": self_s(*tn),
        "transport.tinf_calls": calls(*tinf),
        "transport.tinf_energies": size(*tinf),
        "transport.tinf_self_s": self_s(*tinf),
        "transport.energies_per_call": t_energies / max(t_calls, 1.0),
        "currents.reports": float(len(reports)),
        "currents.integrand_calls": float(tracer.integrand_calls),
        "currents.integrand_points": float(tracer.integrand_points),
        "currents.points_per_report": tracer.integrand_points / max(len(reports), 1),
        "currents.self_s": self_s(*current_calls),
        "currents.quad_failures": float(len(failed_reports)),
        "currents.failed_points": float(tracer.failed_points),
        "oracle.calls": oracle_calls,
        "oracle.s": dur(*oracle),
        "oracle.us_per_energy": 1e6 * dur(*oracle) / max(oracle_calls, 1.0),
        "cli.parse_s": dur("cli.load_config"),
        "cli.compute_s": dur("cli._parallel_grid", "cli._r_theta_values"),
        "cli.pool_s": self_s("cli._parallel_grid"),
        "cli.format_s": dur("cli._table"),
        "cli.format_bytes": size("cli._table"),
        "cli.emit_s": dur("cli._emit"),
    }
    for check in SELFCHECK_CHECKS:
        metrics[f"selfcheck.{check}_s"] = dur(f"selfcheck.{check}")
    return metrics
