"""Repository lint: determinism, encapsulation and flow rules.

The simulator's claim to reproducibility is structural: all randomness
flows through seeded streams (:mod:`repro.sim.rng`), all time comes from
the engine clock, and mm accounting structures are only mutated by their
owning modules.  Nothing in Python enforces any of that — one stray
``random.random()`` in an experiment silently makes a figure
unreproducible.  This module registers the *syntactic* rules on the
shared :data:`~repro.analysis.rules.DEFAULT_REGISTRY` and hosts the
drivers that run every registered rule — AST and CFG/dataflow alike —
over one parsed :class:`~repro.analysis.rules.FileContext` per file
(the AST is parsed once and walked once; see ``docs/analysis.md``).

Syntactic rules registered here:

``no-direct-random``
    No ``random``-module calls (or ``from random import ...``) inside
    ``repro.sim``/``repro.mm``/``repro.experiments``/``repro.workloads``.
    Use :func:`repro.sim.rng.make_rng` — the one sanctioned entry point
    (itself exempt).  ``import random`` purely for type annotations is
    allowed; *calling* into the module is not.

``no-wallclock``
    No ``time.time()``/``time.monotonic()``/``datetime.now()`` and
    friends in the same scope: simulated time comes from
    ``Simulator.now``.

``no-float-page-eq``
    No ``==``/``!=`` against float literals where the other operand names
    a page/byte/nanosecond quantity; counts are integers, compare them as
    integers (or use explicit tolerances for derived ratios).

``mm-encapsulation``
    Writes to mm accounting structures (``owner_pages``, ``block_pages``,
    ``_free_pages``, ``free_pages``, ``isolated``, and mutations of a
    ``.blocks`` list) are only legal inside the owning modules
    (``repro.mm.zone``/``block``/``owner``/``manager``); a zone's
    ``usable_blocks`` index only inside ``repro.mm.zone``.  Everyone else
    must go through the manager API — exactly the boundary the runtime
    sanitizer audits.

``module-all-required``
    Every module under ``repro`` declares ``__all__``: the public surface
    is explicit, and star-imports stay predictable.

``no-bare-except``
    No bare ``except:`` anywhere under ``repro``.  The fault-injection
    plane works because failures travel through *named* exceptions with
    structured context; a bare handler also swallows the sanitizer's
    ``InvariantViolation``, turning accounting corruption into silence.

``no-mode-branching``
    No membership tests against ``DeploymentMode`` members (``is``/
    ``==``/``in`` and their negations) outside ``repro.modes``.  Each
    mode's behaviour lives on its registered backend object (elasticity,
    admission credit, datapath factory, fault sites); branching on mode
    identity elsewhere re-scatters exactly the special-casing the
    registry exists to hold in one place.  Ask the mode object, or add a
    hook to :class:`repro.modes.base.DeploymentBackend`.

``no-print-in-src``
    No ``print()`` calls under ``repro`` outside ``repro.experiments``
    (the CLI layer owns its report output; standalone ``tools/`` scripts
    are outside the package and unaffected).  Library code that wants to
    surface something emits a span, event or metric through
    :mod:`repro.obs` — observability that is structured, deterministic
    and exportable instead of interleaved stdout noise.

``no-adhoc-sweep``
    Experiment modules never hand-roll sweep loops: a ``for``/``while``
    whose body builds or runs whole scenarios (``run_scenario``,
    ``MicrobenchRig``, ``Simulator``, ``Fleet``, ...) bypasses
    :mod:`repro.sweep` — losing the stable cell ids, ``--workers``
    sharding and deterministic merge the engine provides.  Declare the
    points as a :class:`~repro.sweep.grid.SweepGrid` and iterate
    ``run_sweep`` results instead.  The scenario/rig engines themselves
    (``repro.experiments.serverless``/``microbench``) and the CLI
    dispatch are exempt.

``no-direct-evict``
    Container eviction is the lifecycle layer's monopoly: outside the
    agent internals (``repro.faas.agent``/``lifecycle``/``container``),
    nothing mutates an agent's idle pools (``.idle`` assignment or
    in-place mutator calls) or tears containers down directly
    (``.teardown()``/``.destroy_after_oom()``).  Ad-hoc eviction
    bypasses the pluggable :class:`~repro.faas.lifecycle.EvictionPolicy`
    ranking, the eviction records trace-report attributes cold starts
    to, and the unplug coupling — go through
    ``Agent.recycle_pass``/``request_reclaim``.

The CFG/dataflow rule families (``stale-guard-across-yield``,
``unchecked-result``, ``span-hygiene``, ``no-sim-sleep-side-effect``)
live in :mod:`repro.analysis.flow` and register on the same registry;
importing this module pulls them in so every driver below runs the full
set.

Suppression
-----------
Append ``# lint: allow[rule-name]`` (comma-separated names allowed, with
optional trailing rationale) to the offending line::

    started = time.time()  # lint: allow[no-wallclock] wall-clock display

Machine-readable output: every error is a :class:`LintError`;
:func:`render_json` emits them as a JSON array, and
:func:`repro.analysis.sarif.render_sarif` as a SARIF 2.1.0 log for CI
code-scanning annotations.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.analysis import cfg as cfg_mod
from repro.analysis.rules import (
    DEFAULT_REGISTRY,
    FileContext,
    LintError,
    RuleRegistry,
)

__all__ = [
    "LintError",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
]


#: Packages the determinism rules apply to.
_DETERMINISM_SCOPE = (
    "repro.sim",
    "repro.mm",
    "repro.experiments",
    "repro.workloads",
)
#: The sanctioned seeded-RNG entry point (exempt from no-direct-random).
_RNG_ENTRYPOINT = "repro.sim.rng"
#: Modules allowed to mutate mm accounting structures.
_MM_OWNING_MODULES = {
    "repro.mm.zone",
    "repro.mm.block",
    "repro.mm.owner",
    "repro.mm.manager",
}
#: Guarded attributes that a single owning module mutates alone.
_MM_SOLE_OWNER = {"usable_blocks": "repro.mm.zone"}
#: Attributes guarded by mm-encapsulation (write/mutation targets).
_GUARDED_WRITE_ATTRS = {
    "owner_pages",
    "block_pages",
    "_free_pages",
    "free_pages",
    "isolated",
    "usable_blocks",
}
#: Container attributes whose in-place mutator calls are guarded.
_GUARDED_CONTAINER_ATTRS = {"owner_pages", "block_pages", "blocks", "usable_blocks"}
_MUTATOR_METHODS = {
    "append",
    "clear",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "update",
}
#: Wall-clock call patterns (dotted suffixes).
_WALLCLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}
#: Identifier fragments that mark a page/byte/time quantity.
_QUANTITY_RE = re.compile(r"(page|byte|block|_ns$|^ns_|latency|bytes)", re.I)
#: Calls that mark a loop body as running whole scenarios/sims — the
#: shapes no-adhoc-sweep bans from hand-rolled experiment loops.
_SCENARIO_ENTRYPOINTS = {
    "run_scenario",
    "run_single_reclaim",
    "run_reclaim_after_freeing",
    "MicrobenchRig",
    "Simulator",
    "Fleet",
    "ServerlessScenario",
}
#: Modules that own container eviction (exempt from no-direct-evict):
#: the agent drives it, the lifecycle layer ranks it, the container
#: implements it.
_EVICTION_OWNING_MODULES = {
    "repro.faas.agent",
    "repro.faas.lifecycle",
    "repro.faas.container",
}
#: Teardown entry points only the eviction owners may call.
_TEARDOWN_METHODS = {"teardown", "destroy_after_oom"}


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def module_name_for(path: Path) -> str:
    """Dotted module name of ``path`` (``src`` layout aware)."""
    parts = list(path.parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    elif "repro" in parts:
        parts = parts[parts.index("repro") :]
    else:
        parts = [path.name]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _in_scope(module: str, packages: Sequence[str]) -> bool:
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _mentions_quantity(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and _QUANTITY_RE.search(child.id):
            return True
        if isinstance(child, ast.Attribute) and _QUANTITY_RE.search(child.attr):
            return True
    return False


# ----------------------------------------------------------------------
# Syntactic rules (registered on the shared registry, kind="ast").
# Each receives the per-file FileContext: ``ctx.nodes`` is the one
# cached walk of the module — rules never re-walk the tree themselves.
# ----------------------------------------------------------------------
_register = DEFAULT_REGISTRY.rule


@_register(
    "no-direct-random",
    (
        "sim/mm/experiments/workloads must draw randomness from "
        "repro.sim.rng.make_rng, never the bare random module"
    ),
)
def _rule_no_direct_random(ctx: FileContext) -> Iterator[LintError]:
    if (
        not _in_scope(ctx.module, _DETERMINISM_SCOPE)
        or ctx.module == _RNG_ENTRYPOINT
    ):
        return
    for node in ctx.nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            yield LintError(
                ctx.path,
                node.lineno,
                node.col_offset,
                "no-direct-random",
                "from random import ... bypasses the seeded streams; use "
                "repro.sim.rng.make_rng",
            )
        elif isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None and (
                dotted == "random" or dotted.startswith("random.")
            ):
                yield LintError(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    "no-direct-random",
                    f"call to {dotted}() is unseeded; draw from "
                    f"repro.sim.rng.make_rng instead",
                )


@_register(
    "no-wallclock",
    (
        "sim/mm/experiments/workloads must take time from the engine "
        "clock, never time.time()/datetime.now()"
    ),
)
def _rule_no_wallclock(ctx: FileContext) -> Iterator[LintError]:
    if not _in_scope(ctx.module, _DETERMINISM_SCOPE):
        return
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if dotted is None:
            continue
        tail2 = ".".join(dotted.split(".")[-2:])
        if dotted in _WALLCLOCK_CALLS or tail2 in _WALLCLOCK_CALLS:
            yield LintError(
                ctx.path,
                node.lineno,
                node.col_offset,
                "no-wallclock",
                f"{dotted}() reads the wall clock; simulated time comes "
                f"from Simulator.now",
            )


@_register(
    "no-float-page-eq",
    (
        "page/byte/ns quantities are integers; never compare them to "
        "float literals with == or !="
    ),
)
def _rule_no_float_page_eq(ctx: FileContext) -> Iterator[LintError]:
    if not _in_scope(ctx.module, ("repro",)):
        return
    for node in ctx.nodes:
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        operands = [node.left] + list(node.comparators)
        has_float = any(
            isinstance(operand, ast.Constant)
            and isinstance(operand.value, float)
            for operand in operands
        )
        if has_float and any(_mentions_quantity(operand) for operand in operands):
            yield LintError(
                ctx.path,
                node.lineno,
                node.col_offset,
                "no-float-page-eq",
                "float equality on a page/byte/ns quantity; counts are "
                "integers — compare as int or use an explicit tolerance",
            )


@_register(
    "mm-encapsulation",
    (
        "mm accounting structures are only mutated by their owning "
        "modules (repro.mm.zone/block/owner/manager)"
    ),
)
def _rule_mm_encapsulation(ctx: FileContext) -> Iterator[LintError]:
    if not _in_scope(ctx.module, ("repro",)):
        return

    def foreign(attr: str) -> bool:
        sole = _MM_SOLE_OWNER.get(attr)
        return ctx.module != sole if sole else ctx.module not in _MM_OWNING_MODULES

    def guarded_attr(node: ast.AST) -> Optional[str]:
        # x.owner_pages = ..., x.owner_pages[k] = ..., del x.owner_pages[k]
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _GUARDED_WRITE_ATTRS
            and foreign(node.attr)
        ):
            return node.attr
        return None

    for node in ctx.nodes:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            attr = guarded_attr(target)
            # Writes to *self* attributes define a class's own unrelated
            # field (e.g. an experiment dataclass named free_pages) only
            # inside mm modules; elsewhere the names are reserved.
            if attr is not None:
                yield LintError(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    "mm-encapsulation",
                    f"write to guarded mm attribute .{attr} outside its "
                    f"owning module; go through the GuestMemoryManager API",
                )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            container = node.func.value
            if (
                method in _MUTATOR_METHODS
                and isinstance(container, ast.Attribute)
                and container.attr in _GUARDED_CONTAINER_ATTRS
                and foreign(container.attr)
            ):
                yield LintError(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    "mm-encapsulation",
                    f"in-place mutation .{container.attr}.{method}() outside "
                    f"the owning mm module; go through the "
                    f"GuestMemoryManager API",
                )


@_register(
    "module-all-required",
    "every repro module declares __all__ (explicit public surface)",
)
def _rule_module_all_required(ctx: FileContext) -> Iterator[LintError]:
    if not _in_scope(ctx.module, ("repro",)):
        return
    tree = ctx.tree
    if not tree.body:
        return  # empty files (namespace placeholders) have no surface
    for node in tree.body:
        if isinstance(node, ast.Assign):
            names = [
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            ]
            if "__all__" in names:
                return
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == "__all__"
            ):
                return
    yield LintError(
        ctx.path,
        1,
        0,
        "module-all-required",
        f"module {ctx.module} does not declare __all__",
    )


@_register(
    "no-bare-except",
    (
        "never catch with a bare `except:`; name the exceptions a "
        "recovery path actually handles (a bare handler swallows "
        "InvariantViolation and friends)"
    ),
)
def _rule_no_bare_except(ctx: FileContext) -> Iterator[LintError]:
    if not _in_scope(ctx.module, ("repro",)):
        return
    for node in ctx.nodes:
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield LintError(
                ctx.path,
                node.lineno,
                node.col_offset,
                "no-bare-except",
                "bare `except:` swallows everything, including sanitizer "
                "InvariantViolations; name the exceptions this recovery "
                "path handles",
            )


@_register(
    "no-mode-branching",
    (
        "never branch on DeploymentMode membership outside repro.modes; "
        "behaviour belongs on the registered backend object"
    ),
)
def _rule_no_mode_branching(ctx: FileContext) -> Iterator[LintError]:
    if not _in_scope(ctx.module, ("repro",)) or _in_scope(
        ctx.module, ("repro.modes",)
    ):
        return

    def names_mode_member(operand: ast.AST) -> bool:
        for child in ast.walk(operand):
            if isinstance(child, ast.Attribute):
                dotted = _dotted(child)
                if dotted is not None and "DeploymentMode." in dotted:
                    return True
        return False

    for node in ctx.nodes:
        if not isinstance(node, ast.Compare):
            continue
        branching_ops = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)
        if not any(isinstance(op, branching_ops) for op in node.ops):
            continue
        operands = [node.left] + list(node.comparators)
        if any(names_mode_member(operand) for operand in operands):
            yield LintError(
                ctx.path,
                node.lineno,
                node.col_offset,
                "no-mode-branching",
                "membership test against DeploymentMode members outside "
                "repro.modes; ask the mode object (mode.elastic, "
                "mode.fault_sites, ...) or add a DeploymentBackend hook",
            )


@_register(
    "no-print-in-src",
    (
        "library code never print()s; emit spans/metrics through "
        "repro.obs (experiments and tools keep their report output)"
    ),
)
def _rule_no_print_in_src(ctx: FileContext) -> Iterator[LintError]:
    if not _in_scope(ctx.module, ("repro",)) or _in_scope(
        ctx.module, ("repro.experiments",)
    ):
        return
    for node in ctx.nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield LintError(
                ctx.path,
                node.lineno,
                node.col_offset,
                "no-print-in-src",
                "print() in library code; emit a span/event/metric through "
                "repro.obs (or move the report to repro.experiments)",
            )


@_register(
    "no-adhoc-sweep",
    (
        "experiment modules iterate sweep points through repro.sweep "
        "(grid + run_sweep), never hand-rolled scenario loops"
    ),
)
def _rule_no_adhoc_sweep(ctx: FileContext) -> Iterator[LintError]:
    if not _in_scope(ctx.module, ("repro.experiments",)) or ctx.module in (
        "repro.experiments.serverless",  # the scenario engine itself
        "repro.experiments.microbench",  # the rig the cells build
        "repro.experiments.__main__",  # dispatch, not a sweep
    ):
        return
    for node in ctx.nodes:
        if not isinstance(node, (ast.For, ast.While)):
            continue
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            name = _dotted(child.func)
            if name is None:
                continue
            leaf = name.rsplit(".", 1)[-1]
            if leaf in _SCENARIO_ENTRYPOINTS:
                yield LintError(
                    ctx.path,
                    child.lineno,
                    child.col_offset,
                    "no-adhoc-sweep",
                    f"{leaf}() inside a hand-rolled sweep loop; declare "
                    "the points as a SweepGrid and run them through "
                    "repro.sweep.run_sweep (cells shard across --workers "
                    "and merge deterministically)",
                )
                break  # one finding per loop is enough


@_register(
    "no-direct-evict",
    (
        "container eviction goes through the lifecycle layer: never "
        "mutate an agent's idle pools or call container teardown "
        "outside repro.faas.agent/lifecycle/container"
    ),
)
def _rule_no_direct_evict(ctx: FileContext) -> Iterator[LintError]:
    if (
        not _in_scope(ctx.module, ("repro",))
        or ctx.module in _EVICTION_OWNING_MODULES
    ):
        return

    def is_idle_pool(node: ast.AST) -> bool:
        # x.idle = ..., x.idle[k] = ..., del x.idle[k]
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr == "idle"

    for node in ctx.nodes:
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if is_idle_pool(target):
                yield LintError(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    "no-direct-evict",
                    "write to an agent idle pool outside the lifecycle "
                    "layer; evict through Agent.recycle_pass/"
                    "request_reclaim",
                )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method = node.func.attr
            if method in _TEARDOWN_METHODS:
                yield LintError(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    "no-direct-evict",
                    f".{method}() outside the lifecycle layer bypasses "
                    f"eviction ranking, records and the unplug coupling; "
                    f"go through Agent.recycle_pass/request_reclaim",
                )
            elif method in _MUTATOR_METHODS and is_idle_pool(node.func.value):
                yield LintError(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    "no-direct-evict",
                    f"in-place mutation .idle.{method}() outside the "
                    f"lifecycle layer; evict through Agent.recycle_pass/"
                    f"request_reclaim",
                )


@_register(
    "no-unbounded-series",
    (
        "telemetry recorded from simulator loops in cluster//metrics "
        "must stream through bounded RollupSeries, not raw TimeSeries/"
        "list appends (exact-mode paths carry an explicit allow)"
    ),
)
def _rule_no_unbounded_series(ctx: FileContext) -> Iterator[LintError]:
    if not _in_scope(ctx.module, ("repro.cluster", "repro.metrics")):
        return

    # Finding A: raw TimeSeries construction anywhere in scope — every
    # instance is either a short-horizon exact-mode path (annotate it)
    # or a bounded-memory bug waiting for a long trace.
    for node in ctx.nodes:
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is not None and name.rsplit(".", 1)[-1] == "TimeSeries":
                yield LintError(
                    ctx.path,
                    node.lineno,
                    node.col_offset,
                    "no-unbounded-series",
                    "TimeSeries() retains every sample; collect through "
                    "repro.obs.rollup.RollupSeries (O(buckets) resident) "
                    "or annotate the exact-mode path",
                )

    def is_series_record(call: ast.Call) -> bool:
        # x.series.record(...), x.used[key].record(...), *_series.record
        receiver = call.func.value  # type: ignore[union-attr]
        if isinstance(receiver, ast.Subscript):
            return True
        return isinstance(receiver, ast.Attribute) and (
            receiver.attr in ("series", "samples")
            or receiver.attr.endswith("_series")
        )

    def is_accumulator_append(call: ast.Call) -> bool:
        # x.samples.append(...), *_events.append, *_series.append
        receiver = call.func.value  # type: ignore[union-attr]
        return isinstance(receiver, ast.Attribute) and (
            receiver.attr == "samples"
            or receiver.attr.endswith("_events")
            or receiver.attr.endswith("_series")
        )

    # Finding B: per-tick appends inside simulator coroutines — any
    # loop in a generator function samples on the simulated clock, so
    # unbounded appends there grow with the horizon.
    for info in ctx.functions:
        if not cfg_mod.contains_yield(info.node):
            continue
        for loop in ast.walk(info.node):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for child in ast.walk(loop):
                if not isinstance(child, ast.Call) or not isinstance(
                    child.func, ast.Attribute
                ):
                    continue
                method = child.func.attr
                if method == "record" and is_series_record(child):
                    yield LintError(
                        ctx.path,
                        child.lineno,
                        child.col_offset,
                        "no-unbounded-series",
                        f"{info.qualname}: per-tick .record() into an "
                        "append-only series inside a simulator loop; "
                        "record into a RollupSeries or annotate the "
                        "exact-mode path",
                    )
                elif method == "append" and is_accumulator_append(child):
                    yield LintError(
                        ctx.path,
                        child.lineno,
                        child.col_offset,
                        "no-unbounded-series",
                        f"{info.qualname}: per-tick .append() onto an "
                        "unbounded accumulator inside a simulator loop; "
                        "aggregate through a RollupSeries/counter or "
                        "annotate the bounded path",
                    )


# Importing the flow module registers the CFG/dataflow rule families on
# the same registry, so every driver below runs the full set.  The
# import sits *after* the AST rules so a fresh process always lists
# rules in the same order (AST first, flow second).
import repro.analysis.flow  # noqa: E402,F401  (registration side effect)

#: rule name → one-line description, for every registered rule (the
#: lintable contract; kept as a plain dict for back-compat with callers
#: that predate the registry).
RULES: Dict[str, str] = DEFAULT_REGISTRY.descriptions()


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: str = "<string>",
    module: Optional[str] = None,
    registry: Optional[RuleRegistry] = None,
) -> List[LintError]:
    """Lint one source string; returns findings after suppression.

    Every registered rule — syntactic and flow — runs over one shared
    :class:`FileContext` (one parse, one AST walk, CFGs built lazily).
    """
    if module is None:
        module = module_name_for(Path(path))
    if registry is None:
        registry = DEFAULT_REGISTRY
    try:
        ctx = FileContext(source, path, module)
    except SyntaxError as error:
        return [
            LintError(
                path,
                error.lineno or 1,
                error.offset or 0,
                "syntax-error",
                f"cannot parse: {error.msg}",
            )
        ]
    errors: List[LintError] = []
    for rule in registry:
        for error in rule.check(ctx):
            if error.rule in ctx.suppressed.get(error.line, ()):
                continue
            errors.append(error)
    errors.sort(key=lambda e: (e.path, e.line, e.col, e.rule))
    return errors


def lint_file(
    path: Path, registry: Optional[RuleRegistry] = None
) -> List[LintError]:
    """Lint one file on disk."""
    return lint_source(
        path.read_text(encoding="utf-8"),
        str(path),
        module_name_for(path),
        registry=registry,
    )


def iter_py_files(paths: Iterable[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths`` (files or directories), in the
    deterministic order the lint drivers visit them."""
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(
                sorted(
                    candidate
                    for candidate in path.rglob("*.py")
                    if not any(
                        part.startswith(".") or part.endswith(".egg-info")
                        for part in candidate.parts
                    )
                )
            )
        else:
            files.append(path)
    return files


def lint_paths(
    paths: Iterable[Path], registry: Optional[RuleRegistry] = None
) -> List[LintError]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    errors: List[LintError] = []
    for file in iter_py_files(paths):
        errors.extend(lint_file(file, registry=registry))
    return errors


def render_text(errors: Sequence[LintError]) -> str:
    """``path:line:col: [rule] message`` — one finding per line."""
    return "\n".join(
        f"{error.path}:{error.line}:{error.col}: [{error.rule}] {error.message}"
        for error in errors
    )


def render_json(errors: Sequence[LintError]) -> str:
    """Findings as a JSON array (machine-readable output mode)."""
    return json.dumps([asdict(error) for error in errors], indent=2)
