"""Per-layer tracing from outside the package.

The traced run replaces functions with timing wrappers where their callers
look them up: a module attribute in the calling module's namespace, or a
method on its class. Nothing under src/ is edited. A wrapped name that no
longer exists is recorded as absent instead of raising, so the same
benchmark keeps measuring a package whose internals were renamed.

Per-candidate calls are kept only as aggregates (calls, total, self time).
Spans (name, start, end, parent) are kept only for coarse calls, so memory
stays bounded on sweeps of 10^5+ candidates.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Iterable, Optional

_MISSING = object()


class Tracer:
    """Aggregated call statistics, counters and coarse spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.installed: set[str] = set()
        self.absent: list[str] = []
        self.hook_errors = 0
        self.contexts: dict[int, Any] = {}  # sweep contexts whose memo is counted at the end
        self._stack: list[list] = []  # frames: [child_seconds, span_index]
        self._undo: list[tuple[Any, str, Any]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _stat(self, name: str) -> list:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        return st

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    def timed(
        self,
        fn: Callable,
        name: str,
        coarse: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """`fn` wrapped to record calls, total and self time under `name`."""
        stat = self._stat(name)
        stack = self._stack
        clock = self.clock
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._hook(before, args, None)
            frame = [0.0, -1]
            if coarse:
                frame[1] = len(spans)
                spans.append((name, 0.0, 0.0, tracer._parent_span()))
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if coarse:
                    i = frame[1]
                    spans[i] = (name, t0, t0 + dt, spans[i][3])
            if after is not None:
                tracer._hook(after, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """`fn` wrapped to count calls only; its time stays with the caller."""
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_iter(self, fn: Callable, name: str) -> Callable:
        """`fn` returning an iterator whose every step is timed under `name`."""
        create = self.timed(fn, name)
        stat = self._stat(name)
        stack = self._stack
        clock = self.clock

        def steps(it):
            while True:
                frame = [0.0, -1]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stat[1] += dt
                    stat[2] += dt - frame[0]
                    if stack:
                        stack[-1][0] += dt
                yield item

        def wrapper(*args, **kwargs):
            return steps(iter(create(*args, **kwargs)))

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook(self, hook: Callable, args: tuple, result: Any) -> None:
        # a hook reads internals that a refactor may change; it must never
        # turn a measured run into a failed one
        try:
            hook(self, args, result)
        except Exception:
            self.hook_errors += 1

    def wrap(self, owner: Any, path: str, name: str, kind: str = "timed", **opts) -> bool:
        """Replace owner.<path> (dotted for a class attribute) by a wrapper.

        Returns False, and records `owner.path` as absent, when the name
        does not exist.
        """
        label = f"{getattr(owner, '__name__', owner)}.{path}"
        *parents, attr = path.split(".")
        target = owner
        for part in parents:
            target = getattr(target, part, _MISSING)
            if target is _MISSING:
                break
        fn = _MISSING if target is _MISSING else getattr(target, attr, _MISSING)
        if fn is _MISSING or not callable(fn):
            self.absent.append(label)
            return False
        if kind == "counted":
            wrapper = self.counted(fn, name)
        elif kind == "iter":
            wrapper = self.timed_iter(fn, name)
        else:
            wrapper = self.timed(fn, name, **opts)
        setattr(target, attr, wrapper)
        self._undo.append((target, attr, fn))
        self.installed.add(name)
        return True

    def uninstall(self) -> None:
        while self._undo:
            target, attr, fn = self._undo.pop()
            setattr(target, attr, fn)


# ---------------------------------------------------------------------------
# what the traced run wraps, and where


def _memo_lookup(tracer: Tracer, args: tuple, _result: Any) -> None:
    ctx, zmask, k = args[0], args[1], args[2]
    tracer.contexts[id(ctx)] = ctx
    if k > 1:
        tracer.count("memo_lookups")
        if (zmask, k) in ctx.spectral_memo:
            tracer.count("memo_hits")


def _transversal_hit(tracer: Tracer, _args: tuple, result: Any) -> None:
    if result:
        tracer.count("transversal_hits")


def _clique_nodes(tracer: Tracer, args: tuple, _result: Any) -> None:
    tracer.count("clique_nodes", args[0].nodes)


def _cover_result(tracer: Tracer, _args: tuple, result: Any) -> None:
    out, nodes = result
    tracer.count("cover_nodes", nodes)
    if isinstance(out, list):
        tracer.count("cover_found")


def _construction_tag(tracer: Tracer, _args: tuple, result: Any) -> None:
    tracer.count("constructions")
    if result.tag.value == "search-fallback":
        tracer.count("construction_fallbacks")


# (calling module, name as bound there, stat name, kind, options). The same
# function bound in several callers is wrapped in each, under one stat name.
WRAPS: list[tuple[str, str, str, str, dict]] = [
    ("cli", "main", "cli.main", "timed", {"coarse": True}),
    ("cli", "_emit", "cli.emit", "timed", {"coarse": True}),
    ("cli", "verify_fuglede", "harness.fuglede_pass", "timed", {"coarse": True}),
    ("cli", "verify_subgroup_tiling", "harness.subgroup_tiling_pass", "timed", {"coarse": True}),
    ("cli", "case5_nonexistence_probe", "harness.probe", "timed", {"coarse": True}),
    ("spectile", "case5_nonexistence_probe", "harness.probe", "timed", {"coarse": True}),
    ("harness", "_enumerate_candidates", "harness.enumerate", "iter", {}),
    ("harness", "_zero_mask", "harness.zero_mask", "timed", {}),
    ("harness", "_spectral_from_mask", "harness.spectral_from_mask", "timed", {"before": _memo_lookup}),
    ("harness", "_subgroup_transversal", "harness.transversal", "timed", {"after": _transversal_hit}),
    ("harness", "_cover_decide", "harness.cover_decide", "timed", {}),
    ("harness", "_cover_search", "tiling.cover_search", "timed", {"after": _cover_result}),
    ("tiling", "_cover_search", "tiling.cover_search", "timed", {"after": _cover_result}),
    ("harness", "_direction_gap_ok", "harness.direction_gap", "timed", {}),
    ("harness", "_classify_obstruction", "harness.classify_obstruction", "timed", {}),
    ("spectile", "tile_to_spectrum", "harness.tile_to_spectrum", "timed", {"after": _construction_tag}),
    ("spectile", "spectral_to_complement", "harness.spectral_to_complement", "timed", {"after": _construction_tag}),
    ("spectra", "CliqueSearch.find", "spectra.clique", "timed", {"after": _clique_nodes}),
    ("spectile", "find_spectrum", "spectra.find_spectrum", "timed", {}),
    ("harness", "find_spectrum", "spectra.find_spectrum", "timed", {}),
    ("cli", "find_spectrum", "spectra.find_spectrum", "timed", {}),
    ("harness", "is_spectral_pair", "spectra.is_spectral_pair", "timed", {}),
    ("spectile", "find_complement", "tiling.find_complement", "timed", {}),
    ("harness", "find_complement", "tiling.find_complement", "timed", {}),
    ("cli", "find_complement", "tiling.find_complement", "timed", {}),
    ("spectile", "tiles_by_subgroup", "tiling.tiles_by_subgroup", "timed", {}),
    ("harness", "tiles_by_subgroup", "tiling.tiles_by_subgroup", "timed", {}),
    ("cli", "tiles_by_subgroup", "tiling.tiles_by_subgroup", "timed", {}),
    ("harness", "char_sum_vanishes", "cyclotomic.char_sum_vanishes", "timed", {}),
    ("structure", "char_sum_vanishes", "cyclotomic.char_sum_vanishes", "timed", {}),
    ("spectra", "char_sum_vanishes", "cyclotomic.char_sum_vanishes", "timed", {}),
    ("cyclotomic", "char_table", "cyclotomic.char_table", "timed", {}),
    ("harness", "char_table", "cyclotomic.char_table", "timed", {}),
    ("spectra", "char_table", "cyclotomic.char_table", "timed", {}),
    ("harness", "element_order", "groups.element_order", "counted", {}),
    ("groups", "element_order", "groups.element_order", "counted", {}),
    ("groups", "Group.contains", "groups.contains", "counted", {}),
    ("harness", "subgroups_of_order", "groups.subgroups_of_order", "timed", {}),
    ("tiling", "subgroups_of_order", "groups.subgroups_of_order", "timed", {}),
    ("harness", "leaf_decomposition", "structure.leaf_decomposition", "timed", {}),
    ("structure", "leaf_decomposition", "structure.leaf_decomposition", "timed", {}),
    ("cli", "leaf_decomposition", "structure.leaf_decomposition", "timed", {}),
    ("harness", "leaf_constancy", "structure.leaf_constancy", "timed", {}),
    ("harness", "assumption_a_holds", "structure.assumption_a", "timed", {}),
]

MODULES = ("spectile", "cli", "harness", "spectra", "tiling", "cyclotomic", "structure", "groups")


def install(tracer: Tracer, wraps: Iterable[tuple] = WRAPS) -> None:
    """Wrap every entry of `wraps` in the imported spectile package."""
    modules = {}
    for short in MODULES:
        full = "spectile" if short == "spectile" else f"spectile.{short}"
        try:
            modules[short] = importlib.import_module(full)
        except ImportError:
            modules[short] = None
    for short, path, name, kind, opts in wraps:
        owner = modules[short]
        if owner is None:
            tracer.absent.append(f"spectile.{short}.{path}")
            continue
        tracer.wrap(owner, path, name, kind, **opts)


# ---------------------------------------------------------------------------
# per-layer metrics derived from a traced run


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> (unit, stat names it needs, how to compute it from the tracer)
METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[Tracer], float]]] = {}


def _metric(name: str, unit: str, needs: tuple[str, ...], fn: Callable[[Tracer], float]) -> None:
    METRICS[name] = (unit, needs, fn)


def _self(stat: str) -> Callable[[Tracer], float]:
    return lambda t: t.stats.get(stat, (0, 0.0, 0.0))[2]


def _total(stat: str) -> Callable[[Tracer], float]:
    return lambda t: t.stats.get(stat, (0, 0.0, 0.0))[1]


def _calls(stat: str) -> Callable[[Tracer], float]:
    return lambda t: t.stats.get(stat, (0, 0.0, 0.0))[0]


def _counter(name: str) -> Callable[[Tracer], float]:
    return lambda t: t.counters.get(name, 0)


_metric("harness.cover_setup_s", "s", ("harness.cover_decide",), _self("harness.cover_decide"))
_metric("harness.fuglede_pass_s", "s", ("harness.fuglede_pass",), _total("harness.fuglede_pass"))
_metric(
    "harness.subgroup_tiling_pass_s", "s",
    ("harness.subgroup_tiling_pass",), _total("harness.subgroup_tiling_pass"),
)
_metric("harness.zero_mask_s", "s", ("harness.zero_mask",), _self("harness.zero_mask"))
_metric("harness.zero_mask_calls", "count", ("harness.zero_mask",), _calls("harness.zero_mask"))
_metric("harness.enumerate_s", "s", ("harness.enumerate",), _self("harness.enumerate"))
_metric("harness.transversal_s", "s", ("harness.transversal",), _self("harness.transversal"))
_metric(
    "harness.transversal_hit_ratio", "ratio", ("harness.transversal",),
    lambda t: _ratio(t.counters.get("transversal_hits", 0), _calls("harness.transversal")(t)),
)
_metric(
    "harness.spectral_memo_hit_ratio", "ratio", ("harness.spectral_from_mask",),
    lambda t: _ratio(t.counters.get("memo_hits", 0), t.counters.get("memo_lookups", 0)),
)
_metric(
    "harness.spectral_memo_entries", "count", ("harness.spectral_from_mask",),
    lambda t: sum(len(getattr(c, "spectral_memo", ())) for c in t.contexts.values()),
)
_metric("harness.direction_gap_s", "s", ("harness.direction_gap",), _self("harness.direction_gap"))
_metric(
    "harness.classify_obstruction_s", "s",
    ("harness.classify_obstruction",), _self("harness.classify_obstruction"),
)
_metric(
    "harness.tile_to_spectrum_s", "s",
    ("harness.tile_to_spectrum",), _self("harness.tile_to_spectrum"),
)
_metric(
    "harness.spectral_to_complement_s", "s",
    ("harness.spectral_to_complement",), _self("harness.spectral_to_complement"),
)
_metric(
    "harness.construction_fallback_ratio", "ratio",
    ("harness.tile_to_spectrum", "harness.spectral_to_complement"),
    lambda t: _ratio(t.counters.get("construction_fallbacks", 0), t.counters.get("constructions", 0)),
)
_metric("spectra.clique_s", "s", ("spectra.clique",), _self("spectra.clique"))
_metric("spectra.clique_calls", "count", ("spectra.clique",), _calls("spectra.clique"))
_metric("spectra.clique_nodes", "count", ("spectra.clique",), _counter("clique_nodes"))
_metric("spectra.find_spectrum_s", "s", ("spectra.find_spectrum",), _self("spectra.find_spectrum"))
_metric(
    "spectra.is_spectral_pair_calls", "count",
    ("spectra.is_spectral_pair",), _calls("spectra.is_spectral_pair"),
)
_metric("tiling.cover_search_s", "s", ("tiling.cover_search",), _self("tiling.cover_search"))
_metric("tiling.cover_nodes", "count", ("tiling.cover_search",), _counter("cover_nodes"))
_metric(
    "tiling.cover_found_ratio", "ratio", ("tiling.cover_search",),
    lambda t: _ratio(t.counters.get("cover_found", 0), _calls("tiling.cover_search")(t)),
)
_metric("tiling.find_complement_s", "s", ("tiling.find_complement",), _self("tiling.find_complement"))
_metric(
    "tiling.tiles_by_subgroup_s", "s",
    ("tiling.tiles_by_subgroup",), _self("tiling.tiles_by_subgroup"),
)
_metric(
    "cyclotomic.char_sum_vanishes_calls", "count",
    ("cyclotomic.char_sum_vanishes",), _calls("cyclotomic.char_sum_vanishes"),
)
_metric(
    "cyclotomic.char_sum_vanishes_s", "s",
    ("cyclotomic.char_sum_vanishes",), _self("cyclotomic.char_sum_vanishes"),
)
_metric("cyclotomic.char_table_s", "s", ("cyclotomic.char_table",), _self("cyclotomic.char_table"))
_metric(
    "groups.element_order_calls", "count",
    ("groups.element_order",), _calls("groups.element_order"),
)
_metric("groups.contains_calls", "count", ("groups.contains",), _calls("groups.contains"))
_metric(
    "groups.subgroups_of_order_s", "s",
    ("groups.subgroups_of_order",), _self("groups.subgroups_of_order"),
)
_metric(
    "structure.leaf_decomposition_s", "s",
    ("structure.leaf_decomposition",), _self("structure.leaf_decomposition"),
)
_metric(
    "structure.leaf_constancy_s", "s",
    ("structure.leaf_constancy",), _self("structure.leaf_constancy"),
)
_metric("structure.assumption_a_s", "s", ("structure.assumption_a",), _self("structure.assumption_a"))
_metric("cli.emit_s", "s", ("cli.emit",), _self("cli.emit"))


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every per-layer metric: {"value", "unit"} or {"absent": True, "unit"}."""
    out = {}
    for name, (unit, needs, fn) in METRICS.items():
        if not any(n in tracer.installed for n in needs):
            out[name] = {"absent": True, "unit": unit}
        else:
            out[name] = {"value": fn(tracer), "unit": unit}
    return out


def report(tracer: Tracer) -> dict:
    """Everything a traced run keeps: metrics, aggregates, spans, absences."""
    return {
        "metrics": layer_metrics(tracer),
        "stats": {
            k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
            for k, v in sorted(tracer.stats.items())
        },
        "counters": dict(sorted(tracer.counters.items())),
        "spans": [list(s) for s in tracer.spans],
        "absent": sorted(tracer.absent),
        "hook_errors": tracer.hook_errors,
    }
