"""Span tracing of the library from outside, for the benchmark's traced run.

``Tracer.install()`` replaces chosen public functions and methods with timing
wrappers in every ``nonhausdorff`` module namespace that binds them (a name
brought in with ``from ... import`` is a separate binding, so each one is
patched), and ``uninstall()`` puts the originals back.  Nothing under the
library's source tree is edited.

Each wrapped call is a span with a name, start, end and parent span; spans of
one benchmark operation share an operation id.  Self time is a span's
duration minus the time covered by its child spans; the code is
single-threaded, so children never overlap and that coverage is their summed
duration.  The hot leaves (``cells.closure`` and the intersection domains)
are aggregated into totals instead of being stored span by span, which keeps
memory flat on workloads that call them hundreds of thousands of times per
pass.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

# Modules whose self time the passes measure; ``refine`` runs only during
# set-up and is reported as ``refine.subdivide_s`` from a traced set-up.
MODULES = ("schema", "cli", "adjunction", "cells", "cohomology", "linalg", "cochains", "geometry")


def _nnz(mat: Any) -> int:
    return sum(len(row) for row in mat.rows)


@dataclass
class _Frame:
    name: str
    span_id: int
    child_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans, per-name totals and counters while installed."""

    spans: list[tuple[int, int, int, str, float, float]] = field(default_factory=list)
    calls: dict[str, int] = field(default_factory=dict)
    total_s: dict[str, float] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    builds_by_op: dict[int, int] = field(default_factory=dict)
    op_id: int = 0
    _stack: list[_Frame] = field(default_factory=list)
    _next_span: int = 1
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(
        self,
        name: str,
        fn: Callable,
        leaf: bool = False,
        before: Callable[[tuple], None] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        """Wrap ``fn`` so that each call records a span called ``name``.

        ``before(args)`` and ``after(args, result)`` run outside the span and
        may update counters.  A ``leaf`` span is totalled but not stored.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(name, 0 if leaf else tracer._next_span)
            if not leaf:
                tracer._next_span += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child_s += duration
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                tracer.total_s[name] = tracer.total_s.get(name, 0.0) + duration
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - frame.child_s
                if not leaf:
                    parent_id = parent.span_id if parent is not None else 0
                    tracer.spans.append((tracer.op_id, frame.span_id, parent_id, name, start, end))
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def _patch_everywhere(self, original: Callable, wrapped: Callable) -> None:
        """Rebind ``original`` to ``wrapped`` in every library module that binds it."""
        for name, module in list(sys.modules.items()):
            if name != "nonhausdorff" and not name.startswith("nonhausdorff."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapped)

    def install(self) -> None:
        """Wrap the traced library entry points in place."""
        from nonhausdorff.cohomology import Bicomplex, FreeComplex
        from nonhausdorff.linalg import Mat

        def fn(module: str, attr: str, name: str, **kw: Any) -> None:
            original = getattr(sys.modules[f"nonhausdorff.{module}"], attr)
            self._patch_everywhere(original, self.span(name, original, **kw))

        def method(cls: type, attr: str, name: str, **kw: Any) -> None:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.span(name, original, **kw))

        fn("cli", "main", "cli.main")
        fn("schema", "parse_document", "schema.parse")
        fn("schema", "parse_cochain_document", "schema.parse_cochain")

        fn("adjunction", "validate_system", "adjunction.validate")
        fn(
            "adjunction",
            "closure_intersection_check",
            "adjunction.closure_check",
            after=lambda args, result: self.count("adjunction.tuples_visited", len(result)),
        )
        fn("adjunction", "hausdorff_pairs", "adjunction.hausdorff_pairs")
        fn("adjunction", "glued_cell_classes", "adjunction.classes")
        fn("adjunction", "regular_open_check", "adjunction.regular_open")
        fn("adjunction", "open_intersection", "adjunction.open_intersection", leaf=True, after=self._nonempty)
        fn("adjunction", "closed_intersection", "adjunction.closed_intersection", leaf=True)
        fn("cells", "closure", "cells.closure", leaf=True)

        fn("cohomology", "build_bicomplex", "cohomology.build_bicomplex", after=self._bicomplex_size)
        fn("cohomology", "resolve_cores", "cohomology.resolve_cores")
        fn("cohomology", "global_complex_betti", "cohomology.global_complex_betti")
        fn("cohomology", "row_exactness_check", "cohomology.row_exactness_check")
        fn("cohomology", "mv_report", "cohomology.mv_report")
        fn("cohomology", "euler_inclusion_exclusion", "cohomology.euler_inclusion_exclusion")
        fn("cohomology", "de_rham_compare", "cohomology.de_rham_compare")
        method(Bicomplex, "total_complex", "cohomology.total_complex", after=self._total_nnz)
        method(Bicomplex, "verify", "cohomology.dd_check")
        method(FreeComplex, "validate", "cohomology.dd_check")

        method(
            Mat,
            "rank",
            "linalg.rank",
            before=lambda args: self.count("linalg.rank_nnz_in", _nnz(args[0])),
        )
        method(Mat, "nullspace", "linalg.nullspace")
        method(Mat, "matmul", "linalg.matmul")
        fn("linalg", "solve_columns", "linalg.solve")
        fn("linalg", "independent_columns", "linalg.independent")

        fn("cochains", "integrate", "cochains.integrate")
        fn("cochains", "stokes_defect", "cochains.stokes")
        fn("cochains", "assemble_global", "cochains.assemble_global")
        fn("geometry", "gauss_bonnet_report", "geometry.gauss_bonnet")
        fn("geometry", "validate_metric", "geometry.validate_metric")
        fn("refine", "subdivide_system", "refine.subdivide")

    def uninstall(self) -> None:
        """Restore every patched binding, last patch first."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # -- counters fed from wrapped calls ----------------------------------------

    def _nonempty(self, args: tuple, result: Any) -> None:
        """Count the nonempty intersections met by the closure-intersection check."""
        if result.members and self._stack and self._stack[-1].name == "adjunction.closure_check":
            self.count("adjunction.nonempty_intersections")

    def _bicomplex_size(self, args: tuple, bicx: Any) -> None:
        self.count("cohomology.bicomplex_dim", sum(len(labels) for labels in bicx.bases.values()))
        self.builds_by_op[self.op_id] = self.builds_by_op.get(self.op_id, 0) + 1

    def _total_nnz(self, args: tuple, fc: Any) -> None:
        self.count("cohomology.total_nnz", sum(_nnz(m) for m in fc.maps))

    # -- summaries ----------------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        """Self time per library module, summed over its spans."""
        out = {module: 0.0 for module in MODULES}
        for name, seconds in self.self_s.items():
            module = name.split(".", 1)[0]
            if module in out:
                out[module] += seconds
        return out

    def write_spans(self, path: str) -> None:
        """Write the stored spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end in self.spans:
                record = {"op": op, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")
