"""Command line front end.

Subcommands::

    thimac validate MODEL [--json]
    thimac events MODEL [--encode EVENT | --decode CODE]
    thimac behavior MODEL [--name NAME] [--dot]
    thimac simulate MODEL SCENARIO [--behavior NAME] [--trace] [--transitive]
    thimac export MODEL [--highlight EVENT] [--canonical]

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 semantic errors (or a stuck run, or one stopped by its tick cap or
the entry budget),
2 syntax errors, 3 nonconforming trace, 4 usage.
"""

from __future__ import annotations

import argparse
import sys

from . import events as events_mod
from . import simulate as simulate_mod
from . import __version__
from .dsl import ParseResult, SourceDocument, emit_behavior_dot, emit_dot
from .dsl import _write_chunks, parse, serialize
from .simulate import (
    ScenarioError,
    SimulationError,
    conforms,
    load_scenario,
    project,
    render_trace,
    run,
)
from .validate import validate


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 4, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(4)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError as exc:
        print(f"thimac: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(4)


def _parse_file(path: str) -> ParseResult:
    result = parse(SourceDocument(_read(path), path))
    for diag in result.diagnostics:
        print(diag.render(path), file=sys.stderr)
    if result.model is None:
        raise SystemExit(2)
    return result


def _check_behavior(result: ParseResult, name: str):
    """B diagnostics of behavior ``name``, each with its source line."""
    return events_mod.check_behavior(
        result.model,
        result.behaviors[name],
        result.event_lines,
        result.edge_lines[name],
    )


def cmd_validate(args, result: ParseResult) -> int:
    diags = validate(result.model)
    for name in result.behaviors:
        diags += _check_behavior(result, name)
    for d in diags:
        print(d.render(args.model), file=sys.stderr)
    errors = sum(1 for d in diags if d.severity == "error")
    warnings = len(diags) - errors
    if args.json:
        import json  # here, not at the top: no other command pays its import

        # the bytes of json.dumps(..., indent=2), never held as one text
        encoder = json.JSONEncoder(indent=2)
        _write_chunks(encoder.iterencode([d._asdict() for d in diags]), sys.stdout)
        print()
    else:
        print(f"{errors} error(s), {warnings} warning(s)")
    return 1 if errors else 0


def _event_by_name(result: ParseResult, name: str):
    for ev in result.events:
        if ev.name == name:
            return ev
    print(f"thimac: no event named {name!r}", file=sys.stderr)
    raise SystemExit(4)


def cmd_events(args, result: ParseResult) -> int:
    model = result.model
    if args.encode is not None:
        ev = _event_by_name(result, args.encode)
        try:
            seq = events_mod.event_action_sequence(model, ev)
        except events_mod.NonLinearRegion as exc:
            print(f"thimac: {exc}", file=sys.stderr)
            return 1
        print(events_mod.encode_actions(seq))
        return 0
    if args.decode is not None:
        try:
            seq = events_mod.decode_actions(args.decode)
        except events_mod.EventError as exc:
            print(f"thimac: {exc}", file=sys.stderr)
            return 1
        print(" ".join(kind.value for kind in seq))
        return 0
    for ev in result.events:
        try:
            code = events_mod.encode_actions(
                events_mod.event_action_sequence(model, ev)
            )
        except events_mod.NonLinearRegion:
            code = "-"
        time = f" time {ev.time.start}..{ev.time.end}" if ev.time else ""
        print(f"{ev.name} {code or '-'} [{len(ev.region)} stages]{time}")
    return 0


def _pick_behavior(result: ParseResult, name: str | None):
    if name is not None:
        if name not in result.behaviors:
            print(f"thimac: no behavior named {name!r}", file=sys.stderr)
            raise SystemExit(4)
        return name, result.behaviors[name]
    if len(result.behaviors) == 1:
        return next(iter(result.behaviors.items()))
    return None, None


def cmd_behavior(args, result: ParseResult) -> int:
    name, behavior = _pick_behavior(result, args.name)
    if behavior is None:
        print(
            "thimac: model declares no single behavior; use --name",
            file=sys.stderr,
        )
        raise SystemExit(4)
    if args.dot:
        sys.stdout.write(emit_behavior_dot(name, behavior))
    else:
        for a, b in behavior.edges:
            print(f"{a} -> {b}")
    for d in _check_behavior(result, name):
        print(d.render(args.model), file=sys.stderr)
    return 0


def cmd_simulate(args, result: ParseResult) -> int:
    name, behavior = _pick_behavior(result, args.behavior)
    model = result.model
    try:
        scenario = load_scenario(model, _read(args.scenario))
    except ScenarioError as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return 2
    try:
        trace = run(model, scenario)
    except SimulationError as exc:
        print(f"thimac: {exc}", file=sys.stderr)
        return 1
    projection = project(model, trace, result.events)
    for ref in projection.uncovered:
        print(f"warning: no declared event covers {ref}", file=sys.stderr)
    if args.trace:
        render_trace(model, trace, sys.stdout)
    else:
        for ev in projection.events:
            print(ev.name)
    entries, truncated = len(trace.labels), trace.truncated
    del trace  # the last reader is done: conformance needs only the projection
    budget = simulate_mod.ENTRY_BUDGET
    if entries > budget:
        print(f"thimac: run hit the entry budget {budget}", file=sys.stderr)
        return 1
    if truncated:
        print(f"thimac: run hit the tick cap {scenario.max_ticks}", file=sys.stderr)
        return 1
    if behavior is None:
        return 0
    try:
        report = conforms(behavior, projection.events, transitive=args.transitive)
    except SimulationError as exc:
        print(f"thimac: {exc}", file=sys.stderr)
        return 3
    if not report.ok:
        for problem in report.problems:
            print(f"thimac: {problem}", file=sys.stderr)
        return 3
    print(f"conforms to {name}", file=sys.stderr)
    return 0


def cmd_export(args, result: ParseResult) -> int:
    if args.canonical:
        serialize(result.model, result.events, result.behaviors, out=sys.stdout)
        return 0
    highlight = None
    if args.highlight is not None:
        highlight = _event_by_name(result, args.highlight).region
    emit_dot(result.model, highlight, out=sys.stdout)
    return 0


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="thimac", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="semantic checks over a model file")
    p.add_argument("model")
    p.add_argument("--json", action="store_true", help="machine-readable findings")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("events", help="list, encode, or decode events")
    p.add_argument("model")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--encode", metavar="EVENT", help="letter-code one event")
    g.add_argument("--decode", metavar="CODE", help="expand a letter code")
    p.set_defaults(func=cmd_events)

    p = sub.add_parser("behavior", help="print a declared chronology")
    p.add_argument("model")
    p.add_argument("--name", help="behavior to print (default: the only one)")
    p.add_argument("--dot", action="store_true", help="emit Graphviz instead")
    p.set_defaults(func=cmd_behavior)

    p = sub.add_parser("simulate", help="run a scenario and project events")
    p.add_argument("model")
    p.add_argument("scenario")
    p.add_argument("--behavior", help="chronology to check the run against")
    p.add_argument("--trace", action="store_true", help="print the raw trace")
    p.add_argument(
        "--transitive",
        action="store_true",
        help="accept successions bridged by a directed path",
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("export", help="emit Graphviz (or canonical text)")
    p.add_argument("model")
    p.add_argument("--highlight", metavar="EVENT", help="fill one event's region")
    p.add_argument(
        "--canonical", action="store_true", help="canonical text instead of DOT"
    )
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _parse_file(args.model))
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 4
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
