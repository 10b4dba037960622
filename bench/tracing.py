"""Per-function call counts, total time and self time for the blockcache
package, recorded from outside by wrapping its functions.

A traced name is ``<module>.<qualname>`` relative to the ``blockcache``
package, for example ``submodular.CoverageOracle.marginal``.  Module-level
functions are replaced at every module attribute that binds them, because
the package imports them by name (``frac_online`` binds
``most_violated_constraint``, ``cli`` binds every ``run_*`` and ``opt_*``).
Methods are replaced on their class.  Self time is total time minus the
time spent in wrapped callees.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "blockcache"


def _outcomes() -> dict:
    """Per-function outcome counters: name -> (label, predicate(result, exc))."""
    from blockcache.oracle import OracleIntractableError
    from blockcache.submodular import FEAS_EPS

    return {
        "submodular.most_violated_constraint": (
            "violated",
            lambda res, exc: exc is None and res[0] < -FEAS_EPS,
        ),
        "frac_online.solve_event": (
            "tightened",
            lambda res, exc: exc is None and res.kind == "flush-tightened",
        ),
        "oracle.opt_eviction": (
            "intractable",
            lambda res, exc: isinstance(exc, OracleIntractableError),
        ),
    }


def empty_stats(names) -> dict:
    outcomes = _outcomes()
    stats = {}
    for name in names:
        st = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        if name in outcomes:
            st[outcomes[name][0]] = 0
        stats[name] = st
    return stats


class Tracer:
    """Context manager that wraps the named functions while it is active.

    ``stats`` maps each name to its counters and may be replaced between
    calls (the wrappers look it up on every call), so one installation can
    record separate phases.  Names that no longer resolve are listed in
    ``missing`` instead of being skipped silently.
    """

    def __init__(self, names):
        self.names = list(names)
        self.stats = empty_stats(self.names)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, outcome):
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            result = exc = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                st = tracer.stats[name]
                st["calls"] += 1
                st["total_s"] += elapsed
                st["self_s"] += elapsed - child
                if outcome is not None and outcome[1](result, exc):
                    st[outcome[0]] += 1

        return traced

    def __enter__(self) -> "Tracer":
        outcomes = _outcomes()
        for name in self.names:
            try:
                importlib.import_module(f"{PACKAGE}.{name.split('.', 1)[0]}")
            except ImportError:
                pass  # reported as missing below
        package_modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for name in self.names:
            modname, qualname = name.split(".", 1)
            module = sys.modules.get(f"{PACKAGE}.{modname}")
            if module is None:
                self.missing.append(name)
                continue
            owner_name, _, attr = qualname.rpartition(".")
            outcome = outcomes.get(name)
            if owner_name:
                cls = getattr(module, owner_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__, outcome))
                else:
                    wrapped = self._wrap(name, raw, outcome)
                self._restore.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, fn, outcome)
            for mod in package_modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, binding, fn))
                        setattr(mod, binding, wrapped)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)
        self._stack.clear()
