"""Span tracing of lagmesh from outside the package.

Every traced function is replaced, in each ``lagmesh`` module namespace that
binds it, by a wrapper that records one span per call: its name, start and
end (``perf_counter_ns``), the span that caused it, the thread and the pass.
Spans stay in memory until the pass ends; ``write`` then dumps them as CSV
and ``layer_metrics`` reduces them to per-function calls, busy and self time.

Parent spans: a call on a thread that has no open span of its own (a worker
of the CLI's thread pool) is attributed to the innermost open span of the
thread that installed the tracer. The benchmark client is that thread and
makes one ``cli.main`` call at a time, so this is the span that submitted
the work.
"""

import importlib
import itertools
import os
import sys
import threading
import time

# (layer name, module, attribute) of every traced function. The layer name
# is "<module>.<function>" except for LAPACK, which is numpy.linalg.eigh as
# lagmesh.linalg sees it.
TRACED = (
    ("cli.main", "lagmesh.cli", "main"),
    ("cli.run_table", "lagmesh.cli", "run_table"),
    ("cli.run_scan_h", "lagmesh.cli", "run_scan_h"),
    ("cli.run_observables", "lagmesh.cli", "run_observables"),
    ("cli.run_wavefunction", "lagmesh.cli", "run_wavefunction"),
    ("cli.write_csv", "lagmesh.cli", "write_csv"),
    ("solver.solve", "lagmesh.solver", "solve"),
    ("solver.assemble_hamiltonian", "lagmesh.solver", "assemble_hamiltonian"),
    ("solver.solve_spectrum", "lagmesh.solver", "solve_spectrum"),
    ("linalg.eigh_refined", "lagmesh.linalg", "eigh_refined"),
    ("linalg.lapack_eigh", None, None),
    ("potentials.partial_wave_gaussian", "lagmesh.potentials", "partial_wave_gaussian"),
    ("potentials.partial_wave_yukawa", "lagmesh.potentials", "partial_wave_yukawa"),
    ("specfun.legendre_q", "lagmesh.specfun", "legendre_q"),
    ("specfun.laguerre_zeros", "lagmesh.specfun", "laguerre_zeros"),
    ("specfun.laguerre_weights", "lagmesh.specfun", "laguerre_weights"),
    ("specfun.laguerre_weighted", "lagmesh.specfun", "laguerre_weighted"),
    ("specfun.spherical_bessel_j", "lagmesh.specfun", "spherical_bessel_j"),
    ("mesh.build_mesh", "lagmesh.mesh", "build_mesh"),
    ("observables.build_position_calculus", "lagmesh.observables", "build_position_calculus"),
    ("observables.expval_radial", "lagmesh.observables", "expval_radial"),
    ("observables.expval_momentum", "lagmesh.observables", "expval_momentum"),
    ("observables.wavefunction_momentum", "lagmesh.observables", "wavefunction_momentum"),
    ("observables.wavefunction_position", "lagmesh.observables", "wavefunction_position"),
    ("configspace.solve_config", "lagmesh.configspace", "solve_config"),
    ("configspace.assemble_config_hamiltonian", "lagmesh.configspace", "assemble_config_hamiltonian"),
)
LAYERS = tuple(name for name, _, _ in TRACED)


class _NumpyView:
    """A stand-in for a module that overrides some of its attributes."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans = []  # (id, layer index, start_ns, end_ns, parent id or -1, thread)
        self.notes = {}  # layer -> values recorded after each call
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo = []
        self.missing = []  # traced names this version of lagmesh does not define

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, note=None):
        index = LAYERS.index(layer)
        spans = self.spans
        ids = self._ids
        main_stack = self._main_stack
        stack_of = self._stack
        notes = self.notes.setdefault(layer, [])
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = stack_of()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = -1
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, index, start, end, parent, get_ident()))
            if note is not None:
                notes.append(note(args, kwargs))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self) -> None:
        """Replace every traced function in every lagmesh namespace."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "lagmesh" or name.startswith("lagmesh.")]
        for layer, module_name, attr in TRACED:
            if module_name is None:
                continue
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                self.missing.append(layer)
                continue
            wrapper = self.wrap(layer, original, _NOTES.get(layer))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._undo.append((module, name, original))
        linalg = importlib.import_module("lagmesh.linalg")
        numpy = linalg.np
        eigh = self.wrap("linalg.lapack_eigh", numpy.linalg.eigh)
        linalg.np = _NumpyView(numpy, linalg=_NumpyView(numpy.linalg, eigh=eigh))
        self._undo.append((linalg, "np", numpy))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._undo):
            setattr(module, name, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,thread,pass\n")
            for span_id, index, start, end, parent, thread in sorted(self.spans):
                fh.write(f"{span_id},{LAYERS[index]},{start},{end},{parent},{thread},{self.pass_id}\n")

    def layer_metrics(self) -> dict:
        """calls, busy_s and self_s of every layer.

        Self time is a span's duration minus the union of its children's
        intervals, so children running concurrently on pool threads are not
        subtracted twice.
        """
        children = {}
        for _, _, start, end, parent, _ in self.spans:
            children.setdefault(parent, []).append((start, end))
        calls = [0] * len(LAYERS)
        busy = [0] * len(LAYERS)
        own = [0] * len(LAYERS)
        for span_id, index, start, end, _, _ in self.spans:
            covered = 0
            cursor = start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            calls[index] += 1
            busy[index] += end - start
            own[index] += end - start - covered
        out = {}
        for index, layer in enumerate(LAYERS):
            out[layer] = {"calls": calls[index], "busy_s": busy[index] * 1e-9,
                          "self_s": own[index] * 1e-9}
        return out


def _mesh_size(args, kwargs):
    return int(args[0] if args else kwargs["N"])


def _csv_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


_NOTES = {
    "specfun.laguerre_zeros": _mesh_size,
    "cli.write_csv": _csv_bytes,
}
