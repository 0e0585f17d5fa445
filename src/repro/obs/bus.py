"""In-process event bus: the campaign's structured observability spine.

Every layer of the evaluation stack (campaign driver, budgeted oracle,
parallel worker harness) emits typed dataclass events
(:mod:`repro.obs.events`) onto one :class:`EventBus`; subscribers —
metrics collectors, span tracers, terminal renderers, test harnesses —
attach without the emitting code knowing they exist.

Design constraints, in order:

* **Determinism.**  Emission is synchronous and in-order; there is no
  queue, no thread, no reentrancy trick.  The variant-level event
  multiset is part of the engine's determinism contract (serial and
  parallel campaigns emit the same events; ``tests/test_obs.py`` pins
  this), so the bus must never reorder, drop, or duplicate.
* **Subscribers can abort the campaign.**  Exceptions raised by a
  subscriber propagate to the emitter.  This is load-bearing: the
  crash/resume test suite kills campaigns from a subscriber, and an
  operator hook that raises deserves a loud failure, not a swallowed
  log line.
* **Typed subscription.**  A subscriber may restrict itself to specific
  event types (positionally via :meth:`EventBus.subscribe`, or
  declaratively via the :func:`subscribes_to` decorator); unrestricted
  subscribers see every event.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

__all__ = ["EventBus", "Subscriber", "subscribes_to"]

#: A subscriber is any callable taking one event.  Events are frozen
#: dataclasses (:mod:`repro.obs.events`).
Subscriber = Callable[[object], None]

_TYPES_ATTR = "_obs_event_types"


def subscribes_to(*event_types: type):
    """Mark a callable as interested only in the given event types.

    The annotation travels with the function, so a subscriber listed in
    :attr:`CampaignConfig.subscribers` is filtered without its author
    ever touching the bus::

        @subscribes_to(BatchCompleted)
        def log_batch(ev):
            print(ev.telemetry.batch_index, ev.telemetry.sim_seconds)
    """

    def mark(fn: Subscriber) -> Subscriber:
        setattr(fn, _TYPES_ATTR, tuple(event_types))
        return fn

    return mark


class EventBus:
    """Synchronous publish/subscribe hub for campaign events."""

    def __init__(self) -> None:
        # (handler, type-filter or None), in subscription order.
        self._subscribers: list[tuple[Subscriber, Optional[tuple[type, ...]]]] = []
        self.emitted = 0

    def subscribe(self, handler: Subscriber,
                  event_types: Optional[Iterable[type]] = None
                  ) -> Callable[[], None]:
        """Attach *handler*; returns a zero-argument unsubscribe.

        *event_types* restricts delivery to instances of the given
        types; when omitted, a :func:`subscribes_to` annotation on the
        handler is honoured, and an unannotated handler receives every
        event.
        """
        if event_types is None:
            event_types = getattr(handler, _TYPES_ATTR, None)
        types = tuple(event_types) if event_types is not None else None
        entry = (handler, types)
        self._subscribers.append(entry)

        def unsubscribe() -> None:
            try:
                self._subscribers.remove(entry)
            except ValueError:
                pass

        return unsubscribe

    def emit(self, event: object) -> None:
        """Deliver *event* to every matching subscriber, in order.

        Subscriber exceptions propagate: an observability hook that
        raises aborts the emitting operation (the crash-safety tests
        rely on exactly this to kill campaigns at chosen batches).
        """
        self.emitted += 1
        for handler, types in list(self._subscribers):
            if types is None or isinstance(event, types):
                handler(event)

    def __len__(self) -> int:
        return len(self._subscribers)
