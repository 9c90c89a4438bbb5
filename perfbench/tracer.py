"""In-memory span tracer that wraps cryomech's public functions from outside.

The program has no spans of its own, so the benchmark wraps the public
functions of each layer.  A function is replaced under every name it is bound
to in the ``cryomech`` package: ``protocols`` does ``from .lindblad import
evolve``, so wrapping only ``cryomech.lindblad.evolve`` would miss every call
the protocols make.  Private helpers such as the LRU-cached
``protocols._swap_pieces`` are left alone; their public callers are traced.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Optional

#: (module, public functions) wrapped by the tracer.  A span is named
#: ``<layer>.<function>`` after the module, except that every ``build_*``
#: Hamiltonian builder shares the span name ``model.build``.
TARGETS = (
    ("cryomech.cli", ("main",)),
    ("cryomech.protocols", ("sideband_cool", "prepare_motional_superposition",
                            "transfer_state", "esr_scan", "teleport_spin",
                            "teleport_motional", "spin_mech_swap")),
    ("cryomech.lindblad", ("evolve", "steady_state", "liouvillian_matrix")),
    ("cryomech.oracle", ("verify_all", "exact_liouville_evolve", "verify_teleportation")),
    ("cryomech.fockspace", ("partial_trace", "embed")),
    ("cryomech.model", ("build_linearized", "build_beamsplitter", "build_detuned",
                        "build_dispersive", "build_spin_field", "build_spin_mech",
                        "build_jc")),
)

TRANSFER = "protocols.transfer_state"
GENERATOR = "lindblad.liouvillian_matrix"


def span_name(module: str, function: str) -> str:
    layer = module.rsplit(".", 1)[-1]
    return "model.build" if function.startswith("build_") else f"{layer}.{function}"


def generator_bytes(matrix) -> int:
    """Bytes held by a generator: ``nbytes`` of a dense array, or the data,
    index and pointer arrays of a ``scipy.sparse`` matrix."""
    if hasattr(matrix, "indptr"):
        return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
    return int(matrix.nbytes)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    nbytes: int = 0


class Tracer:
    """Collects spans in memory while installed; ``op`` tags each new span."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: span name of each wrapped function, keyed by its code object
        self.codes: dict = {}

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "cryomech" or name.startswith("cryomech.")]
        for module_name, functions in TARGETS:
            module = importlib.import_module(module_name)
            for function in functions:
                original = getattr(module, function)
                name = span_name(module_name, function)
                self.codes[original.__code__] = name
                wrapper = self._wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure = generator_bytes if name == GENERATOR else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if measure is not None:
                span.nbytes = measure(out)
            return out

        return traced


def op_layers(spans: list[Span], op: int, op_s: float) -> dict[str, float]:
    """Per-layer figures of one op from its spans.

    ``<name>.calls`` and ``<name>.s`` count a span only when its parent has
    another name, so a builder called by a builder is part of its caller's
    build.  ``<name>.self_s`` is a span's duration minus its child spans.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    nbytes: dict[str, int] = {}
    in_transfer: dict[int, bool] = {}
    child_s: dict[int, float] = {}
    per_transfer = {"lindblad.evolve": 0, GENERATOR: 0}
    indices = [i for i, s in enumerate(spans) if s.op == op]
    for i in indices:
        s = spans[i]
        if s.parent is not None:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + (s.end - s.start)
    for i in indices:
        s = spans[i]
        dur = s.end - s.start
        parent = spans[s.parent] if s.parent is not None else None
        own[s.name] = own.get(s.name, 0.0) + dur - child_s.get(i, 0.0)
        nbytes[s.name] = nbytes.get(s.name, 0) + s.nbytes
        if parent is None or parent.name != s.name:
            calls[s.name] = calls.get(s.name, 0) + 1
            total[s.name] = total.get(s.name, 0.0) + dur
        # parents are appended before their children, so one pass suffices
        in_transfer[i] = s.name == TRANSFER or (s.parent is not None and in_transfer[s.parent])
        if s.name in per_transfer and in_transfer[i]:
            per_transfer[s.name] += 1

    transfers = calls.get(TRANSFER, 0)
    out = {}
    for name in ("lindblad.steady_state", "lindblad.evolve"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = total.get(name, 0.0)
        out[f"{name}.self_s"] = own.get(name, 0.0)
        out[f"{name}.share"] = total.get(name, 0.0) / op_s
    out[f"{GENERATOR}.calls"] = calls.get(GENERATOR, 0)
    out[f"{GENERATOR}.s"] = total.get(GENERATOR, 0.0)
    out[f"{GENERATOR}.bytes"] = nbytes.get(GENERATOR, 0)
    out["lindblad.evolve_per_transfer"] = (per_transfer["lindblad.evolve"] / transfers
                                           if transfers else 0.0)
    out["lindblad.builds_per_transfer"] = per_transfer[GENERATOR] / transfers if transfers else 0.0
    out[f"{TRANSFER}.calls"] = transfers
    for name in (TRANSFER, "protocols.sideband_cool", "protocols.esr_scan",
                 "protocols.teleport_spin", "protocols.teleport_motional",
                 "oracle.verify_all", "oracle.exact_liouville_evolve",
                 "fockspace.partial_trace", "fockspace.embed", "model.build"):
        out[f"{name}.s"] = total.get(name, 0.0)
    for name in ("oracle.exact_liouville_evolve", "oracle.verify_teleportation",
                 "fockspace.partial_trace", "fockspace.embed", "model.build"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out["protocols.self_s"] = sum(v for k, v in own.items() if k.startswith("protocols."))
    out["cli.self_s"] = own.get("cli.main", 0.0)
    return out


def median_layers(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over ops of each per-layer figure."""
    return {k: statistics.median(d[k] for d in per_op) for k in per_op[0]}


def spans_json(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.op, s.nbytes] for s in spans]
