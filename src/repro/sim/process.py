"""Futures and generator-based processes on top of the event loop.

Protocol *servers* in this package are written as message-handler state
machines (see :mod:`repro.sim.node`), but *clients and workload
drivers* read far more naturally as sequential code.  :func:`spawn`
runs a generator as a lightweight process: the generator yields

* a ``float`` — sleep that many simulated milliseconds,
* a :class:`Future` — suspend until it resolves; ``yield`` evaluates to
  the future's value (or re-raises the future's exception),
* a list/tuple of futures — suspend until *all* resolve; evaluates to
  the list of values.

Example
-------
::

    def client(sim, store):
        yield 10.0                       # think time
        value = yield store.get("k")     # async call returning a Future
        yield store.put("k", value + 1)

    proc = spawn(sim, client(sim, store))
    sim.run()
    assert proc.done
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable

from ..errors import SimulationError
from .core import Simulator


class Future:
    """A write-once container for an asynchronous result.

    Futures may resolve with a value (:meth:`resolve`) or an exception
    (:meth:`fail`).  Callbacks added after resolution run immediately
    via ``sim.call_soon`` so ordering stays deterministic.  ``label`` is
    a string or a ``(template, *args)`` tuple, formatted only when read.
    """

    __slots__ = ("sim", "done", "value", "error", "_callbacks", "_label")

    def __init__(self, sim: Simulator, label: str | tuple = "") -> None:
        self.sim = sim
        self.done = False
        self.value: Any = None
        self.error: BaseException | None = None
        self._callbacks: list[Callable[["Future"], None]] = []
        self._label = label

    @property
    def label(self) -> str:
        label = self._label
        if type(label) is tuple:
            return label[0].format(*label[1:])
        return label

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully.  Resolving twice is an error."""
        if self.done:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self.done = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.call_soon(fn, self)

    def fail(self, error: BaseException) -> None:
        """Complete the future with an exception."""
        if self.done:
            raise SimulationError(f"future {self.label!r} resolved twice")
        self.done = True
        self.error = error
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self.sim.call_soon(fn, self)

    def try_resolve(self, value: Any = None) -> bool:
        """Resolve unless already done.  Returns whether it resolved.

        Useful for quorum protocols where the (R+1)th reply arrives
        after the future already fired.
        """
        if self.done:
            return False
        self.resolve(value)
        return True

    def try_fail(self, error: BaseException) -> bool:
        """Fail unless already done.  Returns whether it failed."""
        if self.done:
            return False
        self.fail(error)
        return True

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Run ``fn(self)`` when the future completes (maybe immediately)."""
        if self.done:
            self.sim.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def result(self) -> Any:
        """Return the value, re-raising a stored exception.

        Only valid once :attr:`done` is true.
        """
        if not self.done:
            raise SimulationError(f"future {self.label!r} is not resolved yet")
        if self.error is not None:
            raise self.error
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.done:
            state = "pending"
        elif self.error is not None:
            state = f"failed({self.error!r})"
        else:
            state = f"done({self.value!r})"
        return f"<Future {self.label!r} {state}>"


def all_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """A future resolving with the list of values of ``futures``.

    Fails fast with the first exception among them.
    """
    futures = list(futures)
    combined = Future(sim, label="all_of")
    remaining = len(futures)
    if remaining == 0:
        combined.resolve([])
        return combined

    def on_done(_f: Future) -> None:
        nonlocal remaining
        if combined.done:
            return
        if _f.error is not None:
            combined.try_fail(_f.error)
            return
        remaining -= 1
        if remaining == 0:
            combined.resolve([f.value for f in futures])

    for f in futures:
        f.add_callback(on_done)
    return combined


class Process:
    """A running generator process.  Returned by :func:`spawn`."""

    def __init__(self, sim: Simulator, gen: Generator, name: str = "proc") -> None:
        self.sim = sim
        self.gen = gen
        self.name = name
        self.done = False
        self.result: Any = None
        self.error: BaseException | None = None
        self.completion = Future(sim, label=f"{name}.completion")

    def _advance(self, send_value: Any = None, exc: BaseException | None = None) -> None:
        if self.done:
            return
        try:
            if exc is not None:
                yielded = self.gen.throw(exc)
            else:
                yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self.done = True
            self.result = stop.value
            self.completion.resolve(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - propagate via future
            self.done = True
            self.error = err
            self.completion.fail(err)
            return
        self._wait_on(yielded)

    def _wait_on(self, yielded: Any) -> None:
        if isinstance(yielded, Future):
            yielded.add_callback(self._on_future)
        elif isinstance(yielded, (int, float)) and type(yielded) is not bool:
            self.sim.schedule(float(yielded), self._advance)
        elif isinstance(yielded, (list, tuple)):
            all_of(self.sim, yielded).add_callback(self._on_future)
        elif yielded is None:
            self.sim.call_soon(self._advance)
        else:
            self._advance(
                exc=SimulationError(
                    f"process {self.name!r} yielded unsupported {yielded!r}"
                )
            )

    def _on_future(self, future: Future) -> None:
        if future.error is not None:
            self._advance(exc=future.error)
        else:
            self._advance(send_value=future.value)


def spawn(sim: Simulator, gen: Generator, name: str = "proc") -> Process:
    """Start ``gen`` as a process on ``sim`` (first step runs via
    ``call_soon``, i.e. at the current simulated instant)."""
    process = Process(sim, gen, name=name)
    sim.call_soon(process._advance)
    return process
