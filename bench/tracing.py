"""Spans around calls into the program's layers, recorded from outside it.

``install`` replaces each traced function with a wrapper in every
``ultraball`` module namespace that binds it (the CLI and the harness use
from-imports, so patching the defining module alone would miss their call
sites), and in the owning class for methods.  ``restore`` puts the
originals back.  A wrapper records a span (name, start, end, parent span,
request id) and folds it into per-name call counts and self time, where self
time is the span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

# Traced functions per layer; "Class.method" names a method.
TARGETS: dict[str, tuple[str, ...]] = {
    "core": (
        "find_violation", "validate_ultrametric", "space_from_json_dict", "closed_ball",
        "require_canonical", "diam", "smallest_ball", "ball_relation",
    ),
    "ballean": (
        "enumerate_ballean", "hausdorff_balls", "hausdorff_by_cases", "hausdorff_oracle",
        "ballean_space", "iterate_ballean", "smallest_ball_distance", "family_diameters",
        "singleton_embedding",
    ),
    "dendrogram": (
        "build_dendrogram", "canonical_code", "are_isometric", "dendrogram_to_space",
        "random_space",
    ),
    "dlps": (
        "dlps_space", "normalize_ball", "dlps_hausdorff", "dlps_sample",
        "dlps_ballean_analysis", "GeometricTail.contains", "GeometricTail.max_at_most",
        "GeometricTail.terms_at_least",
    ),
}
CLI_COMMANDS = ("validate", "ballean", "tree", "isometric", "verify", "dlps-sample")
HARNESS_CHECKS = tuple(f"H{i}" for i in range(1, 13))
# Functions whose result size feeds a yield ratio.
SIZED = {"ballean.enumerate_ballean": len, "dlps.dlps_sample": lambda s: s.n,
         "dlps.GeometricTail.terms_at_least": len}
QUERIES = ("ballean.hausdorff_balls", "ballean.hausdorff_by_cases", "core.ball_relation",
           "ballean.smallest_ball_distance")
MARK = "__bench_original__"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {}
    for layer, names in TARGETS.items():
        for name in names:
            units[f"{layer}.{name}.calls"] = "count"
            units[f"{layer}.{name}.self_s"] = "s"
    for check in HARNESS_CHECKS:
        units[f"harness.{check}.s"] = "s"
    for command in CLI_COMMANDS:
        units[f"cli.{command}.self_s"] = "s"
    units["core.require_canonical.per_query"] = "ratio"
    units["ballean.enumerate_ballean.yield"] = "ratio"
    units["dlps.dlps_sample.yield"] = "ratio"
    units["trace.overhead.latency_p50_geomean_s"] = "s"
    units["trace.overhead.req_per_s"] = "1/s"
    return units


class Tracer:
    """In-memory span store with running per-name aggregates.

    Aggregates cover every span.  Raw spans are kept up to ``span_cap`` so
    that memory stays bounded on workloads with millions of calls.
    """

    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.span_count = 0
        self.request_id = -1
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter()
        self.child_calls: Counter[tuple[str, str]] = Counter()
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, name_of_call: Callable | None = None) -> Callable:
        stack, clock, size = self._stack, time.perf_counter, SIZED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name_of_call(*args, **kwargs) if name_of_call else name
            parent = stack[-1] if stack else None
            frame = [span_name, 0.0, 0.0, self.span_count]
            self.span_count += 1
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.calls[span_name] += 1
                self.self_s[span_name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    self.child_calls[parent[0], span_name] += 1
                if len(self.spans) < self.span_cap:
                    self.spans.append((span_name, frame[1], end,
                                       -1 if parent is None else parent[3], self.request_id))
            if size is not None:
                self.sizes[span_name] += size(result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever an ``ultraball`` module binds it."""
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "ultraball"]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"ultraball.{layer}")
            for name in names:
                if "." in name:
                    owner, attr = name.split(".")
                    cls = getattr(home, owner)
                    self._patch(cls, attr, self.wrap(f"{layer}.{name}", vars(cls)[attr]))
                    continue
                original = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        cli = importlib.import_module("ultraball.cli")
        self._patch(cli, "cli_main", self.wrap("cli", cli.cli_main, _cli_span_name))

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: Path) -> None:
        """One JSON line per kept span: name, start, end, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps({"spans": self.span_count, "kept": len(self.spans)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer calls and self time per cycle of the workload, plus ratios."""
        out: dict[str, float] = {}
        for layer, names in TARGETS.items():
            for name in names:
                key = f"{layer}.{name}"
                out[f"{key}.calls"] = self.calls[key] / cycles
                out[f"{key}.self_s"] = self.self_s[key] / cycles
        for command in CLI_COMMANDS:
            out[f"cli.{command}.self_s"] = self.self_s[f"cli.{command}"] / cycles
        queries = sum(self.calls[q] for q in QUERIES)
        out["core.require_canonical.per_query"] = _ratio(
            self.calls["core.require_canonical"], queries)
        out["ballean.enumerate_ballean.yield"] = _ratio(
            self.sizes["ballean.enumerate_ballean"],
            self.child_calls["ballean.enumerate_ballean", "core.closed_ball"])
        out["dlps.dlps_sample.yield"] = _ratio(
            self.sizes["dlps.dlps_sample"], self.sizes["dlps.GeometricTail.terms_at_least"])
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cli_span_name(argv: list[str] | None = None) -> str:
    words = list(argv or [])[:2]
    return "cli." + ("-".join(words) if words[:1] == ["dlps"] else "".join(words[:1]))


def installed_wrappers() -> int:
    """How many ``ultraball`` bindings currently hold a benchmark wrapper."""
    count = 0
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] != "ultraball":
            continue
        for value in vars(module).values():
            count += hasattr(value, MARK)
            if isinstance(value, type):
                count += sum(hasattr(v, MARK) for v in vars(value).values())
    return count
