"""Seeded workload generators and their expected outputs.

Every generator takes the seed as an argument and returns a ``Case``: the
input files thimac will read, one pass's CLI calls, and what each call must
print.  Expectations come from each generator's own construction (closed
form timings, the documented canonical text and DOT layouts), never from
running thimac, except for the corpus, whose expectations are the checked-in
goldens and the canonical fixed point.

The seed picks names, labels, anchors and call order.  It never changes the
amount of work, so every seed measures the same thing.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

KIND_ORDER = ("create", "process", "release", "transfer", "receive")

#: Comment line rewritten before every pass, fixed width so the work is
#: unchanged.  A cache keyed on input text never hits across passes.
PASS_HEADER = "# pass {:08d}\n"


@dataclass
class Call:
    """One ``thimac`` invocation and what it must produce."""

    argv: list[str]
    stdout: str | None = None  # exact stdout, or None when only the code counts
    codes: tuple[int, ...] = (0,)
    max_tick: int | None = None  # simulate --trace: the run's tick cap
    check: Callable[[str], bool] | None = None  # structural check of stdout

    def verdict(self, code: int, stdout: str) -> str | None:
        """None when the call did what it should, else a one-line reason."""
        if code not in self.codes:
            return f"exit {code}, wanted one of {self.codes}"
        if self.stdout is not None and stdout != self.stdout:
            return "stdout differs from the expectation"
        if self.check is not None and not self.check(stdout):
            return "stdout fails its structural check"
        if self.max_tick is not None and stdout:
            last = stdout.rstrip("\n").rsplit("\n", 1)[-1].split(" ", 1)[0]
            if not last.isdigit():
                return "cannot read the last tick of the trace"
            if int(last) + 1 >= self.max_tick:
                return f"run reached its tick cap {self.max_tick}"
        return None


@dataclass
class Case:
    """One workload instance: inputs, one pass's calls, and its sizes."""

    files: dict[str, str]  # file name in the work directory -> text
    calls: list[Call]
    sizes: dict = field(default_factory=dict)
    subprocess: bool = False  # calls run as `python -m thimac` children

    def write(self, workdir: Path, pass_no: int, names=None) -> None:
        """Write the inputs (or only ``names``) stamped with the pass number."""
        header = PASS_HEADER.format(pass_no)
        for name in self.files if names is None else names:
            (workdir / name).write_text(header + self.files[name], encoding="utf-8")


# ---------------------------------------------------------------------------
# model text in canonical form


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))


class Spec:
    """A model described once and rendered as thimac's canonical text.

    Stage and thimac ids follow declaration order (``t1``, ``s1``, ...), so
    the same description also yields the expected DOT export and the
    declaration position that orders same-tick trace entries.
    """

    def __init__(self) -> None:
        self.nodes: dict[str, dict] = {}  # path -> {kinds, aliases, children}
        self.roots: list[str] = []
        self.flows: list[tuple[str, str, str | None, int | None]] = []
        self.triggers: list[tuple[str, str]] = []
        self.events: list[tuple[str, list[str]]] = []
        self.behaviors: list[tuple[str, list[tuple[str, str]]]] = []

    def thimac(self, path: str, kinds, aliases=None) -> str:
        parent, _, _ = path.rpartition(".")
        self.nodes[path] = {
            "kinds": [k for k in KIND_ORDER if k in kinds],
            "aliases": aliases or {},
            "children": [],
        }
        (self.nodes[parent]["children"] if parent else self.roots).append(path)
        return path

    def flow(self, src: str, dst: str, carries=None, anchor=None) -> None:
        self.flows.append((src, dst, carries, anchor))

    def _depth_first(self):
        stack = list(reversed(self.roots))
        while stack:
            path = stack.pop()
            yield path
            stack.extend(reversed(self.nodes[path]["children"]))

    def stage_refs(self) -> list[str]:
        """Every stage reference in declaration order (stage id order)."""
        return [f"{p}.{k}" for p in self._depth_first() for k in self.nodes[p]["kinds"]]

    def _sorted_flows(self):
        order = sorted(
            range(len(self.flows)),
            key=lambda i: (self.flows[i][3] is None, self.flows[i][3] or 0, i),
        )
        return [self.flows[i] for i in order]

    def text(self) -> str:
        sections = []

        def block(path: str, depth: int) -> list[str]:
            pad, node = "  " * depth, self.nodes[path]
            lines = [f"{pad}thimac {path.rsplit('.', 1)[-1]} {{"]
            for kind in node["kinds"]:
                alias = node["aliases"].get(kind)
                lines.append(f"{pad}  {kind}{f' as {alias}' if alias else ''};")
            for child in node["children"]:
                lines.extend(block(child, depth + 1))
            return lines + [f"{pad}}}"]

        sections += ["\n".join(block(root, 0)) for root in self.roots]
        flow_lines = []
        for src, dst, carries, anchor in self._sorted_flows():
            line = f"flow {src} -> {dst}"
            line += f' carries "{carries}"' if carries is not None else ""
            line += f" anchor {anchor}" if anchor is not None else ""
            flow_lines.append(line + ";")
        if flow_lines:
            sections.append("\n".join(flow_lines))
        if self.triggers:
            sections.append("\n".join(f"trigger {a} => {b};" for a, b in self.triggers))
        if self.events:
            sections.append(
                "\n".join(
                    f"event {name} {{ region [{', '.join(sorted(refs))}] }}"
                    for name, refs in self.events
                )
            )
        for name, edges in self.behaviors:
            body = "".join(f"  {a} -> {b};\n" for a, b in edges)
            sections.append(f"behavior {name} {{\n{body}}}")
        return "\n\n".join(sections) + "\n"

    def dot(self) -> str:
        sid = {ref: f"s{n}" for n, ref in enumerate(self.stage_refs(), start=1)}
        tid = {path: f"t{n}" for n, path in enumerate(self._depth_first(), start=1)}
        out = [
            "digraph tm {",
            "  rankdir=LR;",
            "  compound=true;",
            "  node [shape=box, fontsize=10];",
        ]

        def cluster(path: str, depth: int) -> None:
            pad, node = "  " * (depth + 1), self.nodes[path]
            out.append(f"{pad}subgraph cluster_{tid[path]} {{")
            out.append(f'{pad}  label="{path.rsplit(".", 1)[-1]}";')
            for kind in node["kinds"]:
                label = node["aliases"].get(kind, kind)
                out.append(f'{pad}  {sid[f"{path}.{kind}"]} [label="{label}"];')
            for child in node["children"]:
                cluster(child, depth + 1)
            out.append(f"{pad}}}")

        for root in self.roots:
            cluster(root, 0)
        for src, dst, carries, anchor in self._sorted_flows():
            parts = ([f"({anchor})"] if anchor is not None else []) + (
                [carries] if carries is not None else []
            )
            label = f' [label="{" ".join(parts)}"]' if parts else ""
            out.append(f"  {sid[src]} -> {sid[dst]}{label};")
        out += [f"  {sid[a]} -> {sid[b]} [style=dashed];" for a, b in self.triggers]
        return "\n".join(out + ["}"]) + "\n"


def _trace_text(entries, spec: Spec) -> str:
    """Render (tick, label, ref) entries as thimac sorts and prints them:
    by tick, then stage declaration order, then thing label."""
    pos = {ref: n for n, ref in enumerate(spec.stage_refs())}
    entries = sorted(entries, key=lambda e: (e[0], pos[e[2]], e[1]))
    return "".join(f"{t} {label} {ref} {ref.rsplit('.', 1)[1]}\n" for t, label, ref in entries)


def _simulate_case(spec, scenario, entries, max_ticks, spec_sizes) -> Case:
    final = max(t for t, _, _ in entries)
    sizes = dict(spec_sizes)
    sizes.update(
        trace_entries=len(entries),
        final_tick=final,
        idle_ticks=final + 1 - len({t for t, _, _ in entries}),
    )
    call = Call(
        ["simulate", "model.tm", "run.scn", "--trace"],
        stdout=_trace_text(entries, spec),
        # Exit 3 is the merged-trace projection defect (ROADMAP item 3): kept
        # visible as the cli.exit_code count, not scored as a failure.
        codes=(0, 3),
        max_tick=max_ticks,
    )
    return Case({"model.tm": spec.text(), "run.scn": scenario}, [call], sizes)


def _spec_sizes(spec: Spec) -> dict:
    return {
        "thimacs": len(spec.nodes),
        "stages": len(spec.stage_refs()),
        "flows": len(spec.flows),
        "triggers": len(spec.triggers),
        "events": len(spec.events),
    }


# ---------------------------------------------------------------------------
# chain-flood


def chain_flood(seed: int, machines: int = 40, things: int = 25, gap: int = 2) -> Case:
    """A legal chain ``m0 -> m1 .. mN`` with ``things`` staggered injections.

    m0 creates, releases and transfers; every later machine transfers,
    receives, processes, releases and hands on through a nested ``out``.
    Thing j enters chain position s at tick j*gap + s: many things move
    every tick and no tick is idle.
    """
    rng = random.Random(f"chain-flood:{seed}")
    spec = Spec()
    names = [f"m{i}_{_tag(rng)}" for i in range(machines + 1)]
    spec.thimac(names[0], ("create", "release", "transfer"))
    path = [f"{names[0]}.{k}" for k in ("create", "release", "transfer")]
    spec.events.append((f"e0_{_tag(rng)}", list(path)))
    for i, name in enumerate(names[1:], start=1):
        spec.thimac(name, ("transfer", "receive", "process", "release"))
        spec.thimac(f"{name}.out", ("transfer",))
        stages = [f"{name}.{k}" for k in ("transfer", "receive", "process", "release")]
        stages.append(f"{name}.out.transfer")
        spec.events.append((f"e{i}_{_tag(rng)}", stages))
        path += stages
    for a, b in zip(path, path[1:]):
        spec.flow(a, b)
    events = [e for e, _ in spec.events]
    spec.behaviors.append(("chain", list(zip(events, events[1:]))))

    labels = [f"k{j:03d}_{_tag(rng)}" for j in range(things)]
    final = (things - 1) * gap + len(path) - 1
    max_ticks = 4 * (final + 1)
    scenario = "".join(f"inject {j * gap} {names[0]} {labels[j]}\n" for j in range(things))
    scenario += f"max {max_ticks}\n"
    entries = [
        (j * gap + s, labels[j], ref) for j in range(things) for s, ref in enumerate(path)
    ]
    sizes = _spec_sizes(spec) | {"machines": machines, "things": things, "gap": gap}
    return _simulate_case(spec, scenario, entries, max_ticks, sizes)


# ---------------------------------------------------------------------------
# idle-relay


def idle_relay(seed: int, docks: int = 8, parcels: int = 16, gap: int = 1500) -> Case:
    """Gated docks in a row, parcels injected ``gap`` ticks apart.

    Each dock's receive stage is a gate.  The process stage before it (the
    intake's, then each dock's) triggers the birth of a bell; the bell walks
    to its ring, whose process wakes the gate.  Every dock's process also
    gives birth to a courier that walks to a shared depot.  Couriers, the
    depot and the sink belong to no event.

    With u = T+1 for a parcel injected at T, the parcel reaches dock k's
    gate at u+4 and the bell born at u+1 rings at u+6, so the parcel is woken
    into dock k's process at u+7, which becomes the next u.  Between parcels
    every tick is idle while all earlier things rest.
    """
    rng = random.Random(f"idle-relay:{seed}")
    spec = Spec()

    def machine(prefix, kinds):
        return spec.thimac(f"{prefix}_{_tag(rng)}", kinds)

    def walk(*refs):
        for a, b in zip(refs, refs[1:]):
            spec.flow(a, b)
        return list(refs)

    intake = machine("intake", ("create", "process", "release", "transfer"))
    dock = [machine(f"dock{k}", ("transfer", "receive", "process", "release"))
            for k in range(docks)]
    for d in dock:
        spec.thimac(f"{d}.out", ("transfer",))
    bell, ring, courier = [], [], []
    for k in range(docks):
        bell.append(machine(f"bell{k}", ("create", "release", "transfer")))
        ring.append(machine(f"ring{k}", ("transfer", "receive", "process")))
        courier.append(machine(f"courier{k}", ("create", "release", "transfer")))
    depot = machine("depot", ("transfer", "receive"))
    sink = machine("sink", ("transfer", "receive"))

    intake_walk = [f"{intake}.{s}" for s in ("create", "process", "release", "transfer")]
    walk(*intake_walk, f"{dock[0]}.transfer")
    dock_walks = []
    for k, d in enumerate(dock):
        nxt = f"{dock[k + 1]}.transfer" if k + 1 < docks else f"{sink}.transfer"
        stages = [f"{d}.{s}" for s in ("transfer", "receive", "process", "release")]
        dock_walks.append(walk(*stages, f"{d}.out.transfer", nxt)[:-1])
    walk(f"{sink}.transfer", f"{sink}.receive")
    bell_walks = [
        walk(f"{b}.create", f"{b}.release", f"{b}.transfer",
             f"{r}.transfer", f"{r}.receive", f"{r}.process")
        for b, r in zip(bell, ring)
    ]
    courier_walks = [
        walk(f"{c}.create", f"{c}.release", f"{c}.transfer",
             f"{depot}.transfer", f"{depot}.receive")
        for c in courier
    ]
    spec.triggers.append((f"{intake}.process", f"{bell[0]}.create"))
    for k in range(docks):
        spec.triggers.append((f"{ring[k]}.process", f"{dock[k]}.receive"))
        spec.triggers.append((f"{dock[k]}.process", f"{courier[k]}.create"))
        if k + 1 < docks:
            spec.triggers.append((f"{dock[k]}.process", f"{bell[k + 1]}.create"))

    spec.events.append((f"intake_{_tag(rng)}", intake_walk))
    for k in range(docks):
        spec.events.append((f"bell{k}_{_tag(rng)}", bell_walks[k]))
        spec.events.append((f"dock{k}_{_tag(rng)}", dock_walks[k]))
    ids = [e for e, _ in spec.events]
    edges = [(ids[0], ids[2])] + [(ids[2 * k + 2], ids[2 * k + 4]) for k in range(docks - 1)]
    edges += [(ids[2 * k + 1], ids[2 * k + 2]) for k in range(docks)]
    spec.behaviors.append(("relay", edges))

    labels = [f"p{j:02d}_{_tag(rng)}" for j in range(parcels)]
    entries = []
    for j, label in enumerate(labels):
        entries += [(j * gap + s, label, ref) for s, ref in enumerate(intake_walk)]
        u = j * gap + 1  # the tick the parcel entered the process before dock k
        for k in range(docks):
            entries += [(u + 3, label, dock_walks[k][0]), (u + 4, label, dock_walks[k][1])]
            entries += [(u + 1 + s, f"{bell[k]}-{j + 1}", r) for s, r in enumerate(bell_walks[k])]
            u += 7
            entries += [(u + s, label, r) for s, r in enumerate(dock_walks[k][2:])]
            born = f"{courier[k]}-{j + 1}"
            entries += [(u + 1 + s, born, r) for s, r in enumerate(courier_walks[k])]
        entries += [(u + 3, label, f"{sink}.transfer"), (u + 4, label, f"{sink}.receive")]
    max_ticks = 2 * max(t for t, _, _ in entries)
    scenario = "".join(f"inject {j * gap} {intake} {labels[j]}\n" for j in range(parcels))
    scenario += f"max {max_ticks}\n"
    sizes = _spec_sizes(spec) | {
        "docks": docks, "parcels": parcels, "gap": gap, "things": parcels * (1 + 2 * docks)
    }
    return _simulate_case(spec, scenario, entries, max_ticks, sizes)


# ---------------------------------------------------------------------------
# wide-model


def wide_model(seed: int, roots: int = 24, fanout: int = 3) -> Case:
    """Many root machines, each with a nested ``cell`` and ``arm``.

    Root i transfers to the cells of the next ``fanout`` roots (half of
    these branches anchored) and its arm hands on to root i+1.  Each root's
    receive stage is dead (V5).  Events ``ea`` read CPRT over the root and
    ``eb`` read RPRT through the cell; the chronology is one cycle
    ea0 -> eb0 -> ea1 -> ... -> ea0, so every event is unreachable (B2), the
    graph has a cycle (B3) and the eb_i -> ea_{i+1} edges have no arrow
    between their regions (B1).  The file is written in canonical form, so
    ``export --canonical`` must print it back unchanged.
    """
    rng = random.Random(f"wide-model:{seed}")
    spec = Spec()
    names = [f"r{i:02d}_{_tag(rng)}" for i in range(roots)]
    for r in names:
        spec.thimac(r, KIND_ORDER)
        spec.thimac(f"{r}.cell", ("transfer", "receive", "process"), {"process": "mix"})
        spec.thimac(f"{r}.arm", ("release", "transfer"))
    fan = [(i, (i + k) % roots) for i in range(roots) for k in range(1, fanout + 1)]
    half = len(fan) // 2
    anchored = dict(zip(rng.sample(fan, half), rng.sample(range(1, 10000), half)))
    for i, r in enumerate(names):
        for a, b in (("create", "process"), ("process", "release"), ("release", "transfer")):
            spec.flow(f"{r}.{a}", f"{r}.{b}")
        spec.flow(f"{r}.cell.transfer", f"{r}.cell.receive")
        spec.flow(f"{r}.cell.receive", f"{r}.cell.process")
        spec.flow(f"{r}.cell.process", f"{r}.release")
        spec.flow(f"{r}.process", f"{r}.arm.release")
        spec.flow(f"{r}.arm.release", f"{r}.arm.transfer")
        spec.flow(f"{r}.arm.transfer", f"{names[(i + 1) % roots]}.transfer")
        for k in range(1, fanout + 1):
            j = (i + k) % roots
            spec.flow(f"{r}.transfer", f"{names[j]}.cell.transfer", "item", anchored.get((i, j)))
        spec.triggers.append((f"{r}.cell.process", f"{r}.create"))
    ea = [f"ea{i:02d}_{_tag(rng)}" for i in range(roots)]
    eb = [f"eb{i:02d}_{_tag(rng)}" for i in range(roots)]
    for i, r in enumerate(names):
        root_walk = [f"{r}.create", f"{r}.process", f"{r}.release", f"{r}.transfer"]
        cell_walk = [f"{r}.cell.receive", f"{r}.cell.process", f"{r}.release", f"{r}.transfer"]
        spec.events += [(ea[i], root_walk), (eb[i], cell_walk)]
    cycle = [e for pair in zip(ea, eb) for e in pair]
    spec.behaviors.append(("ring", list(zip(cycle, cycle[1:] + cycle[:1]))))

    findings = sorted(
        [("V5", f"{r}.receive") for r in names]
        + [("B1", f"{eb[i]}->{ea[(i + 1) % roots]}") for i in range(roots)]
        + [("B2", e) for e in cycle]
        + [("B3", "->".join(sorted(cycle)))]
    )

    def diagnostics_match(stdout: str) -> bool:
        """Codes and subjects, all warnings; a B3 cycle may start anywhere."""
        try:
            got = json.loads(stdout)
        except ValueError:
            return False
        keys = sorted(
            (d["code"], "->".join(sorted(set(d["subject"].split("->"))))
             if d["code"] == "B3" else d["subject"])
            for d in got
            if d.get("severity") == "warning"
        )
        return keys == findings and len(got) == len(findings)

    events_out = "".join(
        f"{name} {'CPRT' if name in ea else 'RPRT'} [4 stages]\n" for name, _ in spec.events
    )
    calls = [
        Call(["validate", "--json", "model.tm"], check=diagnostics_match),
        Call(["events", "model.tm"], stdout=events_out),
        Call(["export", "--canonical", "model.tm"], stdout=spec.text()),
        Call(["export", "model.tm"], stdout=spec.dot()),
    ]
    sizes = _spec_sizes(spec) | {"roots": roots, "fanout": fanout, "diagnostics": len(findings)}
    return Case({"model.tm": spec.text()}, calls, sizes)


# ---------------------------------------------------------------------------
# corpus-cli

CORPUS_MODELS = ("library", "toast", "take", "picnic", "signal")
CORPUS_SCENARIOS = (
    ("add_new_book", "library"),
    ("edit_book", "library"),
    ("take", "take"),
    ("toast", "toast"),
    ("picnic", "picnic"),
)


def corpus_cli(seed: int, root: Path) -> Case:
    """Every subcommand over the shipped corpus, one child process per call.

    Expectations are the checked-in goldens (library traces and
    projections, ``take.dot``), the README's clean ``validate`` line for the
    library, a canonical text that ``export --canonical`` must reproduce from
    the source and from itself, and exit code 0 everywhere.
    """
    from thimac import SourceDocument, parse, serialize

    corpus, golden = root / "corpus", root / "tests" / "golden"
    files: dict[str, str] = {}
    calls: list[Call] = []
    for m in CORPUS_MODELS:
        text = (corpus / f"{m}.tm").read_text(encoding="utf-8")
        result = parse(SourceDocument(text, f"{m}.tm"))
        if not result.ok:
            raise SystemExit(f"corpus model {m}.tm does not parse")
        canon = serialize(result.model, result.events, result.behaviors)
        files[f"{m}.tm"], files[f"{m}.canon.tm"] = text, canon
        clean = "0 error(s), 0 warning(s)\n" if m == "library" else None
        dot = (golden / "take.dot").read_text(encoding="utf-8") if m == "take" else None
        calls += [
            Call(["validate", f"{m}.tm"], stdout=clean),
            Call(["events", f"{m}.tm"]),
            Call(["behavior", f"{m}.tm"]),
            Call(["export", f"{m}.tm"], stdout=dot),
            Call(["export", "--canonical", f"{m}.tm"], stdout=canon),
            Call(["export", "--canonical", f"{m}.canon.tm"], stdout=canon),
        ]
    for scn, m in CORPUS_SCENARIOS:
        text = (corpus / "scenarios" / f"{scn}.scn").read_text(encoding="utf-8")
        files[f"{scn}.scn"] = text
        cap = next(int(w[1]) for w in map(str.split, text.splitlines()) if w[:1] == ["max"])
        walks = {}
        if (golden / f"{scn}.trace").exists():
            for ext in ("trace", "projection"):
                walks[ext] = (golden / f"{scn}.{ext}").read_text(encoding="utf-8")
        argv = ["simulate", f"{m}.tm", f"{scn}.scn"]
        calls += [
            Call(argv, stdout=walks.get("projection")),
            Call(argv + ["--trace"], stdout=walks.get("trace"), max_tick=cap),
        ]
    random.Random(f"corpus-cli:{seed}").shuffle(calls)
    sizes = {"models": len(CORPUS_MODELS), "scenarios": len(CORPUS_SCENARIOS), "calls": len(calls)}
    return Case(files, calls, sizes, subprocess=True)


WORKLOADS = {
    "chain-flood": lambda seed, root: chain_flood(seed),
    "wide-model": lambda seed, root: wide_model(seed),
    "idle-relay": lambda seed, root: idle_relay(seed),
    "corpus-cli": corpus_cli,
}
