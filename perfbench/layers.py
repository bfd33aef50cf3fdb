"""Spans around the layer calls that ``thimac.cli`` makes, one per call.

``Tracer.installed`` swaps the names ``thimac.cli`` looks up while a
subcommand runs (``parse``, ``validate``, ``run`` and the rest, and the
``events`` functions it reaches through ``cli.events_mod``) for shims that
time each call and take the pass's counts from its arguments and result.
It puts the originals back when it exits.  A traced pass runs
``thimac.cli.main`` itself, so the spans follow the program's own order of
calls and the checks see its own output.  Argument parsing, file reading,
diagnostics and printing stay outside the spans: they are the ``cli``
layer's own time.  The spans live in memory; the benchmark writes them out
when it ends.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

#: Names ``thimac.cli`` imports into its own namespace, by span name.
CLI_CALLS = {
    "dsl.parse": "parse",
    "dsl.serialize": "serialize",
    "dsl.emit_dot": "emit_dot",
    "validate.validate": "validate",
    "simulate.load_scenario": "load_scenario",
    "simulate.run": "run",
    "simulate.project": "project",
    "simulate.render_trace": "render_trace",
    "simulate.conforms": "conforms",
}

#: Functions ``thimac.cli`` calls as ``events_mod.<name>``.
EVENTS_CALLS = ("check_behavior", "event_action_sequence", "encode_actions")

#: Span names, one per public layer call on the subcommand paths.
LAYERS = (*CLI_CALLS, *(f"events.{name}" for name in EVENTS_CALLS))

#: Counts that repeat exactly from pass to pass; a change flags a change of
#: behaviour, not of speed.
COUNTS = (
    "model.thimacs",
    "model.stages",
    "model.flows",
    "model.triggers",
    "events.declared",
    "validate.diagnostics",
    "events.behavior_diagnostics",
    "trace.entries",
    "trace.things",
    "trace.final_tick",
    "project.events",
    "project.uncovered",
    "conforms.problems",
    "cli.exit_code",
)


class _Module:
    """A module seen through shims: listed names are replaced, others pass."""

    def __init__(self, module, shims: dict) -> None:
        self._module = module
        self.__dict__.update(shims)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class Tracer:
    """In-memory spans (name, start ns, end ns, pass id) and one pass's counts.

    ``counts`` holds the counts of the last traced pass.  Each model file
    counts its sizes once a pass, however often the pass parses it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int]] = []
        self.pass_id = 0
        self.counts: Counter = Counter()
        self._seen: set[str] = set()

    def _shim(self, name: str, fn):
        def shim(*args, **kwargs):
            start = perf_counter_ns()
            out = fn(*args, **kwargs)
            self.spans.append((name, start, perf_counter_ns(), self.pass_id))
            self._count(name, args, out)
            return out

        return shim

    @contextmanager
    def installed(self, cli, pass_id: int):
        """Shims in ``cli``'s namespace for one pass; the originals after."""
        self.pass_id, self.counts, self._seen = pass_id, Counter(), set()
        saved = {attr: getattr(cli, attr) for attr in (*CLI_CALLS.values(), "events_mod")}
        events = saved["events_mod"]
        for name, attr in CLI_CALLS.items():
            setattr(cli, attr, self._shim(name, saved[attr]))
        cli.events_mod = _Module(
            events,
            {n: self._shim(f"events.{n}", getattr(events, n)) for n in EVENTS_CALLS},
        )
        try:
            yield self
        finally:
            for attr, value in saved.items():
                setattr(cli, attr, value)

    def _count(self, name: str, args: tuple, out) -> None:
        counts = self.counts
        if name == "dsl.parse":
            doc, model = args[0], out.model
            counts["dsl.bytes"] += len(doc.text.encode("utf-8"))
            if model is not None and doc.path not in self._seen:
                self._seen.add(doc.path)
                counts["model.thimacs"] += len(model.thimacs)
                counts["model.stages"] += len(model.stages)
                counts["model.flows"] += len(model.flows)
                counts["model.triggers"] += len(model.triggers)
                counts["events.declared"] += len(out.events)
        elif name == "validate.validate":
            counts["validate.diagnostics"] += len(out)
        elif name == "events.check_behavior":
            counts["events.behavior_diagnostics"] += len(out)
        elif name == "simulate.run":
            ticks = out.final_tick + 1
            counts["trace.entries"] += len(out.entries)
            counts["trace.things"] += len(out.things)
            counts["trace.final_tick"] += out.final_tick
            counts["trace.ticks"] += ticks
            counts["trace.idle_ticks"] += ticks - len({e.time.start for e in out.entries})
        elif name == "simulate.project":
            counts["project.events"] += len(out.events)
            counts["project.uncovered"] += len(out.uncovered)
        elif name == "simulate.conforms":
            counts["conforms.problems"] += len(out.problems)

    def dump(self, path: Path) -> None:
        rows = [
            {"name": n, "start_ns": s, "end_ns": e, "pass": p} for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")
