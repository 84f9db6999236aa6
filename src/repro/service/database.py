"""Dispatch bookkeeping in the scheduler-database style (SNIPPETS #2/#3).

The ray-scheduler prototype keeps every object the scheduler reasons
about in a handful of explicit dictionaries (``_pending_needs``,
``_executing_tasks``, ``_finished_objects``, ...) and funnels *every*
state change through registered update handlers, so policy code reacts
to transitions instead of polling shared state.  This module is that
idiom for the solver service's request lifecycle:

* every request is in **exactly one** of ``pending`` → ``executing`` →
  finished (an outcome counter + a bounded recent-history ring);
* every transition goes through :meth:`ServiceDatabase.update`, which
  fires the handlers registered for that event under no lock (handlers
  observe, they don't mutate the database);
* **admission control lives at the transition boundary**: the
  ``submitted`` transition is atomic with the bounded-depth check, so
  the queue depth can never exceed ``max_depth`` — rejection is an
  explicit ``rejected`` transition, not a silent drop.

The service registers obs handlers on construction (queue-depth gauge,
per-outcome counters), which is how the instrumentation stays complete
without the worker code sprinkling metric calls at every return path.

Events: ``submitted``, ``rejected``, ``started``, ``completed``,
``failed``, ``dropped``.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict, deque

__all__ = ["EVENTS", "ServiceDatabase"]

#: The request-lifecycle transitions, in the order a request can see them.
EVENTS = (
    "submitted",   # admitted into pending
    "rejected",    # refused at admission (queue full / service closed)
    "started",     # pending -> executing (a worker took it)
    "completed",   # executing -> finished, result delivered
    "failed",      # executing -> finished, error delivered
    "dropped",     # pending/executing -> finished, deadline passed
)

_FINISHED = ("completed", "failed", "dropped", "rejected")


class ServiceDatabase:
    """Request-state database with update handlers and bounded admission.

    Parameters
    ----------
    max_depth:
        Bounded pending depth; ``None`` disables admission control.
    history:
        How many finished ``(request_id, outcome)`` pairs to retain in
        the recent ring (full counts are kept forever in the outcome
        counter; the ring is for debugging/introspection only).
    """

    def __init__(
        self, max_depth: int | None = None, history: int = 256
    ) -> None:
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._pending: OrderedDict[int, object] = OrderedDict()
        self._executing: dict[int, object] = {}
        self._outcomes: Counter = Counter()
        self._recent: deque = deque(maxlen=history)
        self._handlers: dict[str, list] = {e: [] for e in EVENTS}

    # -- handlers --------------------------------------------------------
    def on(self, event: str, handler) -> None:
        """Register ``handler(event, request, db)`` for a transition."""
        if event not in self._handlers:
            raise KeyError(f"unknown event {event!r}; one of {EVENTS}")
        self._handlers[event].append(handler)

    def _fire(self, event: str, request) -> None:
        for handler in self._handlers[event]:
            handler(event, request, self)

    # -- transitions -----------------------------------------------------
    def admit(self, request) -> bool:
        """``submitted`` transition, atomic with the depth check.

        Returns ``False`` (after firing ``rejected``) when the pending
        set is at ``max_depth``; the request never enters the database.
        """
        with self._lock:
            if (
                self.max_depth is not None
                and len(self._pending) >= self.max_depth
            ):
                self._outcomes["rejected"] += 1
                self._recent.append((request.id, "rejected"))
                rejected = True
            else:
                self._pending[request.id] = request
                rejected = False
        self._fire("rejected" if rejected else "submitted", request)
        return not rejected

    def start(self, request) -> None:
        """``started`` transition: pending → executing."""
        with self._lock:
            self._pending.pop(request.id, None)
            self._executing[request.id] = request
        self._fire("started", request)

    def finish(self, request, outcome: str) -> None:
        """Terminal transition: ``completed``/``failed``/``dropped``."""
        if outcome not in _FINISHED:
            raise KeyError(
                f"unknown outcome {outcome!r}; one of {_FINISHED}"
            )
        with self._lock:
            self._pending.pop(request.id, None)
            self._executing.pop(request.id, None)
            self._outcomes[outcome] += 1
            self._recent.append((request.id, outcome))
        self._fire(outcome, request)

    # -- introspection ---------------------------------------------------
    def depth(self) -> int:
        """Pending requests (the admission-controlled quantity)."""
        with self._lock:
            return len(self._pending)

    def executing(self) -> int:
        with self._lock:
            return len(self._executing)

    def outcome_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._outcomes)

    def recent(self) -> list[tuple[int, str]]:
        with self._lock:
            return list(self._recent)
