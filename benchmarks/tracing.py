"""Spans and counters around orbent's public functions, from outside the program.

:func:`instrument` replaces public functions of the orbent modules with
wrappers that open a span (name, start, end, parent) per call.  A span's self
time is its duration minus the time its direct child spans cover; self times
are summed per span name as the spans close, and the spans of the operations
run while :attr:`Tracer.recording` is set are kept for a trace file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

#: Span name -> (module, attribute); a dotted attribute wraps a class method.
SPANS = {
    "stateio.state_from_dict": ("stateio", "state_from_dict"),
    "ssr.nssr_project": ("ssr", "nssr_project"),
    "ssr.pssr_project": ("ssr", "pssr_project"),
    "ssr.detect_symmetries": ("ssr", "detect_symmetries"),
    "entanglement.sector_spectrum": ("entanglement", "sector_spectrum"),
    "entanglement.SectorSpectrum": ("entanglement", "SectorSpectrum.__init__"),
    "entanglement.orbital_entanglement": ("entanglement", "orbital_entanglement"),
    "entanglement.entanglement_from_spectrum": ("entanglement", "entanglement_from_spectrum"),
    "entanglement.nssr_entanglement_singlet": ("entanglement", "nssr_entanglement_singlet"),
    "entanglement.nssr_entanglement_general": ("entanglement", "nssr_entanglement_general"),
    "entanglement.pssr_entanglement": ("entanglement", "pssr_entanglement"),
    "oracle.ConstrainedSimplexProblem": ("oracle", "ConstrainedSimplexProblem.__init__"),
    "oracle.kl_min_oracle": ("oracle", "kl_min_oracle"),
    "sampling.random_weights": ("sampling", "random_weights"),
    "lattice.sector_basis": ("lattice", "sector_basis"),
    "lattice.build_hamiltonian": ("lattice", "build_hamiltonian"),
    "lattice.ground_state": ("lattice", "ground_state"),
    "lattice.two_orbital_rdm": ("lattice", "two_orbital_rdm"),
    "lattice.bond_scan": ("lattice", "bond_scan"),
    "cli.main": ("cli", "main"),
}
#: Modules that bind some of the wrapped functions by name when imported
#: (``from .entanglement import orbital_entanglement``, dispatch tables), so
#: they are imported only after the functions they bind are wrapped.
LATE_MODULES = ("lattice", "cli")


class Tracer:
    def __init__(self):
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)   # calls per span name, plus plain counters
        self.peaks = defaultdict(float)
        self.recording = False
        self.spans = []          # (id, name, start_ns, end_ns, parent_id, op) while recording
        self.op = 0
        self._stack = []         # open spans: [id, name, start_ns, child_ns]
        self._next_id = 0

    def reset(self) -> None:
        """Forget everything recorded so far (set-up and warm-up calls)."""
        for table in (self.self_ns, self.counts, self.peaks):
            table.clear()
        self.spans.clear()

    def open(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter_ns(), 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child_ns = frame
        duration = end - start
        self.self_ns[name] += duration - child_ns
        self.counts[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if self.recording:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None, self.op))

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(frame)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                         "end_ns": end, "parent": parent, "op": op}) + "\n")


def _hamiltonian_bytes(tracer: Tracer):
    def record(h) -> None:
        stored = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
        tracer.peaks["lattice.hamiltonian_mb"] = max(tracer.peaks["lattice.hamiltonian_mb"],
                                                     stored / 1e6)

    return record


def _count_validations(tracer: Tracer, post_init):
    @functools.wraps(post_init)
    def counted(self):
        if self.validate:
            tracer.counts["fock.validations"] += 1
        return post_init(self)

    return counted


def instrument(tracer: Tracer) -> None:
    """Wrap orbent's public functions. Must run before any of
    :data:`LATE_MODULES` is imported."""
    late = [name for name in LATE_MODULES if f"orbent.{name}" in sys.modules]
    if late:
        raise RuntimeError(f"instrument() must run before importing {late}")
    modules = {name: importlib.import_module(f"orbent.{name}")
               for name in ("fock", "ssr", "oracle", "entanglement", "stateio", "sampling")}
    fock = modules["fock"]
    fock.TwoOrbitalState.__post_init__ = _count_validations(
        tracer, fock.TwoOrbitalState.__post_init__)

    def wrap_in(module_name: str) -> None:
        module = modules[module_name]
        for span, (owner, attr) in SPANS.items():
            if owner != module_name:
                continue
            target, _, method = attr.rpartition(".")
            holder = getattr(module, target) if target else module
            fn = getattr(holder, method)
            on_result = _hamiltonian_bytes(tracer) if span == "lattice.build_hamiltonian" else None
            wrapped = tracer.wrap(span, fn, on_result)
            setattr(holder, method, wrapped)

    for name in list(modules):
        wrap_in(name)
    for name in LATE_MODULES:
        modules[name] = importlib.import_module(f"orbent.{name}")
        wrap_in(name)
