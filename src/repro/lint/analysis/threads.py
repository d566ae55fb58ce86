"""Thread-root discovery: what actually runs concurrently.

A *thread root* is a function that executes on its own thread of
control: a ``threading.Thread`` target or a callable handed to an
executor's ``submit``.  The function that *launches* the concurrency
is a root too (kind ``"spawner"``) — it keeps executing alongside its
children, so its own accesses participate in races.

``multi`` marks roots that can have several live instances at once:
pool callbacks always can; a plain ``Thread`` target
can when the spawn site sits inside a loop or comprehension (the
supervisor's worker pool spawns ``_worker_loop`` once per worker from a
comprehension, for example).  The race detector needs this to flag
state a single root races against *itself*.
"""

from __future__ import annotations

from .callgraph import CallGraph
from .model import ThreadRoot

__all__ = ["discover_roots"]


def discover_roots(graph: CallGraph) -> list[ThreadRoot]:
    roots: dict[tuple[str, str], ThreadRoot] = {}
    for fn in graph.functions.values():
        if not fn.spawns:
            continue
        first = fn.spawns[0]
        spawner_site = f"{first.path}:{first.line}"
        spawner = ThreadRoot(
            function=fn.qualname, kind="spawner", spawned_at=spawner_site, multi=False
        )
        roots.setdefault((fn.qualname, "spawner"), spawner)
        for spawn in fn.spawns:
            if spawn.target is None:
                continue
            target = graph.resolve(fn, spawn.target)
            if target is None:
                continue
            multi = spawn.in_loop or spawn.kind == "pool"
            key = (target.qualname, spawn.kind)
            existing = roots.get(key)
            if existing is None or (multi and not existing.multi):
                roots[key] = ThreadRoot(
                    function=target.qualname,
                    kind=spawn.kind,
                    spawned_at=f"{spawn.path}:{spawn.line}",
                    multi=multi,
                )
    return sorted(roots.values(), key=lambda r: (r.function, r.kind))
