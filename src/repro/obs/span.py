"""Causal spans on the simulated clock.

A :class:`Span` is one timed operation in the reclamation datapath: an
invocation, a plug/unplug request, a per-block driver phase, a fault
window.  Spans form trees through explicit ``parent`` links — in a
discrete-event simulator many processes interleave on one thread, so an
ambient "current span" stack would attribute children to whichever
process happened to run last.  Every layer therefore passes its span
down the call chain (``request_unplug(..., parent=span)``) instead of
relying on implicit context.

All timestamps come from the bound :class:`~repro.sim.engine.Simulator`
clock; span ids are sequential per tracer.  With the same seed, two runs
produce byte-identical span streams.

Opening a span never schedules a simulation event and closing one never
advances the clock, so tracing cannot perturb timing: a traced run and
an untraced run execute the exact same event sequence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = ["NULL_SPAN", "Span", "Tracer"]


class Span:
    """One timed, attributed operation with a causal parent link."""

    __slots__ = (
        "_tracer",
        "span_id",
        "trace_id",
        "parent_id",
        "name",
        "start_ns",
        "end_ns",
        "attrs",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        trace_id: int,
        parent_id: Optional[int],
        name: str,
        start_ns: int,
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs

    @property
    def closed(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set(self, **attrs: object) -> "Span":
        """Attach (or overwrite) structured attributes."""
        self.attrs.update(attrs)
        return self

    def close(self, end_ns: Optional[int] = None, **attrs: object) -> "Span":
        """Close the span (idempotent: only the first close counts)."""
        if self.end_ns is not None:
            return self
        if attrs:
            self.attrs.update(attrs)
        self.end_ns = self._tracer.now if end_ns is None else end_ns
        self._tracer._finish(self)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"end={self.end_ns}" if self.closed else "open"
        return (
            f"Span(id={self.span_id} trace={self.trace_id} "
            f"name={self.name!r} start={self.start_ns} {state})"
        )


class _NullSpan:
    """Inert span: every operation is a no-op.

    ``NULL_SPAN`` is returned by disabled tracers and used as the default
    ``parent`` everywhere, so untraced runs pay one attribute check and
    no allocations.  It is safe to ``set``/``close`` and safe to pass as
    a parent (children become roots).
    """

    __slots__ = ()

    span_id = 0
    trace_id = 0
    parent_id: Optional[int] = None
    name = ""
    start_ns = 0
    end_ns: Optional[int] = 0
    closed = True
    duration_ns = 0

    @property
    def attrs(self) -> Dict[str, object]:
        return {}

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def close(self, end_ns: Optional[int] = None, **attrs: object) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()

SpanLike = Union[Span, _NullSpan]


class Tracer:
    """Factory and registry for :class:`Span` trees.

    One tracer serves one :class:`Simulator` (one fleet).  Span ids are
    dense and deterministic; ``trace_id`` is inherited from the parent
    (roots start their own trace).  Closed spans are kept in close order
    for export; nothing subscribes to them, so domain logs such as
    :class:`~repro.vmm.tracing.HypervisorTracer` and
    :class:`~repro.faults.recovery.RecoveryLog` append their own records
    and a span only observes.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._sim: Optional["Simulator"] = None
        self._next_id = 1
        self._open: Dict[int, Span] = {}
        self._finished: List[Span] = []

    def bind_sim(self, sim: "Simulator") -> None:
        self._sim = sim

    @property
    def now(self) -> int:
        return self._sim.now if self._sim is not None else 0

    def span(
        self,
        name: str,
        parent: Optional[SpanLike] = None,
        start_ns: Optional[int] = None,
        **attrs: object,
    ) -> SpanLike:
        """Open a span; ``parent`` may be ``None``/``NULL_SPAN`` for roots."""
        if not self.enabled:
            return NULL_SPAN
        span_id = self._next_id
        self._next_id += 1
        if isinstance(parent, Span):
            trace_id: int = parent.trace_id
            parent_id: Optional[int] = parent.span_id
        else:
            trace_id = span_id
            parent_id = None
        span = Span(
            self,
            span_id,
            trace_id,
            parent_id,
            name,
            self.now if start_ns is None else start_ns,
            dict(attrs),
        )
        self._open[span_id] = span
        return span

    def event(
        self,
        name: str,
        parent: Optional[SpanLike] = None,
        start_ns: Optional[int] = None,
        **attrs: object,
    ) -> SpanLike:
        """Open and immediately close a zero-duration (instant) span."""
        if not self.enabled:
            return NULL_SPAN
        span = self.span(name, parent=parent, start_ns=start_ns, **attrs)
        return span.close(end_ns=span.start_ns)

    def _finish(self, span: Span) -> None:
        self._open.pop(span.span_id, None)
        self._finished.append(span)

    def spans(self) -> List[Span]:
        """All closed spans, in close order."""
        return list(self._finished)

    def open_spans(self) -> int:
        """Number of spans opened but not yet closed."""
        return len(self._open)

    def open_span_list(self) -> List[Span]:
        return [self._open[sid] for sid in sorted(self._open)]

    def close_open(self, **attrs: object) -> int:
        """Force-close every open span (run cut short); returns the count.

        Experiments that stop at a wall-clock budget abandon in-flight
        invocations; their spans are closed here, tagged with ``attrs``
        (conventionally ``cut="run-end"``), so that after finalization
        ``open_spans() == 0`` holds for every run.
        """
        leftover = self.open_span_list()
        for span in reversed(leftover):  # children before parents
            span.close(**attrs)
        return len(leftover)
