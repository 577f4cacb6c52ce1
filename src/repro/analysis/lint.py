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

Ownership rules say "only the owners may do this".  They are the rows
of one declarative table, :data:`OWNERSHIP`, checked by one visitor:

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

``mm-encapsulation``
    Writes to mm accounting structures (``owner_pages``, ``block_pages``,
    ``_free_pages``, ``free_pages``, ``isolated``, and mutations of a
    ``.blocks`` list) are only legal inside the owning modules
    (``repro.mm.zone``/``block``/``owner``/``manager``); a zone's
    ``usable_blocks`` index only inside ``repro.mm.zone``.  Everyone else
    must go through the manager API — exactly the boundary the runtime
    sanitizer audits.

``no-print-in-src``
    No ``print()`` calls under ``repro`` outside ``repro.experiments``
    (the CLI layer owns its report output; standalone ``tools/`` scripts
    are outside the package and unaffected).  Library code that wants to
    surface something emits a span, event or metric through
    :mod:`repro.obs` — observability that is structured, deterministic
    and exportable instead of interleaved stdout noise.

``no-direct-evict``
    Container eviction is the lifecycle layer's monopoly: outside the
    agent internals (``repro.faas.agent``/``lifecycle``/``container``),
    nothing mutates an agent's idle pools (``.idle`` assignment or
    in-place mutator calls) or tears containers down directly
    (``.teardown()``/``.destroy_after_oom()``).  Ad-hoc eviction
    bypasses the pluggable :class:`~repro.faas.lifecycle.EvictionPolicy`
    ranking, the eviction records the trace report attributes cold starts
    to, and the unplug coupling — go through
    ``Agent.recycle_pass``/``request_reclaim``.

The other syntactic rules registered here:

``no-float-page-eq``
    No ``==``/``!=`` against float literals where the other operand names
    a page/byte/nanosecond quantity; counts are integers, compare them as
    integers (or use explicit tolerances for derived ratios).

``module-all-required``
    Every module under ``repro`` declares ``__all__``: the public surface
    is explicit, and star-imports stay predictable.

``no-bare-except``
    No bare ``except:`` anywhere under ``repro``.  The fault-injection
    plane works because failures travel through *named* exceptions with
    structured context; a bare handler also swallows the sanitizer's
    ``InvariantViolation``, turning accounting corruption into silence.

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
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.analysis import cfg as cfg_mod
from repro.analysis.rules import (
    DEFAULT_REGISTRY,
    FileContext,
    LintError,
    RuleRegistry,
)

__all__ = [
    "LintError",
    "OWNERSHIP",
    "Ownership",
    "RULES",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_text",
    "render_json",
]


#: In-place mutators: calling one on an owned attribute writes to it.
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


@dataclass(frozen=True)
class Ownership:
    """One row of the ownership table: only ``owners`` may use these things.

    Inside the ``scope`` packages, every module except the ``owners``
    (both matched with their submodules) gets a ``rule`` finding for each
    use of an owned thing.  Rows may share a rule id, for instance to give
    one attribute a narrower owner set than the rest of its rule.
    """

    rule: str
    description: str
    scope: Tuple[str, ...]
    owners: Tuple[str, ...]
    #: Follows what was used in the finding's message.
    message: str
    #: Modules: ``from M import ...`` and every call into ``M``.
    modules: Tuple[str, ...] = ()
    #: Functions, matched on the callee's last two dotted names (so
    #: ``datetime.now`` also catches ``dt.datetime.now()``).
    calls: Tuple[str, ...] = ()
    #: Attributes assigned or deleted, directly or through one subscript.
    writes: Tuple[str, ...] = ()
    #: Attributes an in-place mutator is called on, likewise.
    mutated: Tuple[str, ...] = ()
    #: Method names, on any receiver.
    methods: Tuple[str, ...] = ()


_MM_ENCAPSULATION = Ownership(
    "mm-encapsulation",
    (
        "mm accounting structures are only mutated by their owning "
        "modules (repro.mm.zone/block/owner/manager)"
    ),
    scope=("repro",),
    owners=("repro.mm.zone", "repro.mm.block", "repro.mm.owner", "repro.mm.manager"),
    message="outside the owning mm module; go through the GuestMemoryManager API",
    writes=("owner_pages", "block_pages", "_free_pages", "free_pages", "isolated"),
    mutated=("owner_pages", "block_pages", "blocks"),
)

#: The "only X may do Y" rules, one row per owner set.
OWNERSHIP: Tuple[Ownership, ...] = (
    Ownership(
        "no-direct-random",
        (
            "sim/mm/experiments/workloads must draw randomness from "
            "repro.sim.rng.make_rng, never the bare random module"
        ),
        scope=("repro.sim", "repro.mm", "repro.experiments", "repro.workloads"),
        owners=("repro.sim.rng",),
        message="bypasses the seeded streams; draw from repro.sim.rng.make_rng",
        modules=("random",),
    ),
    Ownership(
        "no-wallclock",
        (
            "sim/mm/experiments/workloads must take time from the engine "
            "clock, never time.time()/datetime.now()"
        ),
        scope=("repro.sim", "repro.mm", "repro.experiments", "repro.workloads"),
        owners=(),
        message="reads the wall clock; simulated time comes from Simulator.now",
        calls=(
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
        ),
    ),
    _MM_ENCAPSULATION,
    # A zone's usable-block index has one owner: the zone.
    replace(
        _MM_ENCAPSULATION,
        owners=("repro.mm.zone",),
        writes=("usable_blocks",),
        mutated=("usable_blocks",),
    ),
    Ownership(
        "no-print-in-src",
        (
            "library code never print()s; emit spans/metrics through "
            "repro.obs (experiments and tools keep their report output)"
        ),
        scope=("repro",),
        owners=("repro.experiments",),
        message=(
            "in library code; emit a span/event/metric through repro.obs "
            "(or move the report to repro.experiments)"
        ),
        calls=("print",),
    ),
    Ownership(
        "no-direct-evict",
        (
            "container eviction goes through the lifecycle layer: never "
            "mutate an agent's idle pools or call container teardown "
            "outside repro.faas.agent/lifecycle/container"
        ),
        scope=("repro",),
        owners=("repro.faas.agent", "repro.faas.lifecycle", "repro.faas.container"),
        message=(
            "outside the lifecycle layer; evict through "
            "Agent.recycle_pass/request_reclaim"
        ),
        writes=("idle",),
        mutated=("idle",),
        methods=("teardown", "destroy_after_oom"),
    ),
)


def _attribute(node: ast.AST) -> Optional[str]:
    """``attr`` for ``x.attr`` and ``x.attr[k]``, else None."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return node.attr if isinstance(node, ast.Attribute) else None


#: The node types a use of an owned thing can appear as.
_USE_NODES = (
    ast.ImportFrom,
    ast.Call,
    ast.Assign,
    ast.Delete,
    ast.AugAssign,
    ast.AnnAssign,
)


def _owned_uses(node: ast.AST) -> Iterator[Tuple[str, Optional[str], str]]:
    """``(kind, name, what)`` for each use ``node`` makes of something a
    row can own; ``kind`` is the :class:`Ownership` field to look in."""
    if isinstance(node, ast.ImportFrom):
        yield "modules", node.module, f"from {node.module} import ..."
    elif isinstance(node, ast.Call):
        dotted = _dotted(node.func)
        if dotted is not None:
            parts = dotted.split(".")
            yield "modules", parts[0], f"{dotted}()"
            yield "calls", ".".join(parts[-2:]), f"{dotted}()"
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            yield "methods", method, f".{method}()"
            attr = _attribute(node.func.value)
            if attr is not None and method in _MUTATOR_METHODS:
                yield "mutated", attr, f"in-place mutation .{attr}.{method}()"
    else:
        targets: List[ast.expr] = []
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            attr = _attribute(target)
            if attr is not None:
                yield "writes", attr, f"write to .{attr}"


def _check_ownership(
    rows: Sequence[Ownership], ctx: FileContext
) -> Iterator[LintError]:
    rows = [
        row
        for row in rows
        if _in_scope(ctx.module, row.scope) and not _in_scope(ctx.module, row.owners)
    ]
    if not rows:
        return
    for node in ctx.nodes:
        if not isinstance(node, _USE_NODES):
            continue
        for kind, name, what in _owned_uses(node):
            for row in rows:
                if name in getattr(row, kind):
                    yield LintError(
                        ctx.path,
                        node.lineno,
                        node.col_offset,
                        row.rule,
                        f"{what} {row.message}",
                    )


def _register_ownership() -> None:
    """One registered rule per rule id, checking all of that id's rows."""
    for rule in dict.fromkeys(row.rule for row in OWNERSHIP):
        rows = tuple(row for row in OWNERSHIP if row.rule == rule)
        _register(rule, rows[0].description)(partial(_check_ownership, rows))


_register_ownership()


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
