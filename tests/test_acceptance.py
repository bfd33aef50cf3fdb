"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside pytest's own status.
"""

import itertools
import random

from test_validate import random_legal_model

from thimac.dsl import parse
from thimac.events import (
    AmbiguousReading,
    decode_actions,
    encode_actions,
    event_moved,
    iter_legal_chains,
)
from thimac.model import ActionKind, legal_successor
from thimac.simulate import conforms, load_scenario, project, render_trace, run
from thimac.validate import default_lexicon, validate

C = ActionKind.CREATE
P = ActionKind.PROCESS
REL = ActionKind.RELEASE
T = ActionKind.TRANSFER
RCV = ActionKind.RECEIVE

GOLDEN_PAIRS = {
    (C, P, True),
    (C, REL, True),
    (P, REL, True),
    (REL, T, True),
    (T, RCV, True),
    (RCV, P, True),
    (RCV, REL, True),
    (T, T, False),
}

TEN_VERBS = [
    "take",
    "spread",
    "fold",
    "put",
    "sell",
    "change",
    "display",
    "give",
    "clean",
    "break",
]


def _verdict(num: int, desc: str, problems: list[str]) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"{status}: criterion {num} - {desc}")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def test_criterion_1_library_corpus_integrity(library):
    problems = []
    model = library.model
    if library.diagnostics:
        problems.append(f"{len(library.diagnostics)} parse diagnostics")
    roots = [t for t in model.thimacs.values() if t.parent is None]
    if len(roots) != 2:
        problems.append(f"{len(roots)} top-level thimacs, wanted 2")
    anchored = [f for f in model.flows.values() if f.anchor is not None]
    if len(anchored) < 42:
        problems.append(f"only {len(anchored)} anchored flows, wanted >= 42")
    if len(library.events) != 27:
        problems.append(f"{len(library.events)} events, wanted 27")
    for ev in library.events:
        if not model.connected(ev.region):
            problems.append(f"event {ev.name} region is not connected")
    _verdict(1, "library corpus integrity", problems)


def test_criterion_2_abbreviation_codec():
    problems = []
    stated = (C, REL, T, T, RCV, P)
    if encode_actions(stated) != "CRTTRP":
        problems.append("encode of the six-action chain is not CRTTRP")
    if decode_actions("CRTTRP") != stated:
        problems.append("decode('CRTTRP') is not the six-action chain")

    by_code: dict[str, list[tuple]] = {}
    for chain in iter_legal_chains(6):
        by_code.setdefault(encode_actions(chain), []).append(chain)
    if not (len(by_code) <= 1000):
        problems.append(f"{len(by_code)} codes, expected desk scale")
    ambiguous = sorted(code for code, chains in by_code.items() if len(chains) > 1)
    if ambiguous != ["R"]:
        problems.append(f"ambiguous codes {ambiguous}, expected only 'R'")
    for code, chains in by_code.items():
        if len(chains) == 1:
            if decode_actions(code) != chains[0]:
                problems.append(f"decode({code!r}) is not its unique chain")
                break
        else:
            try:
                decode_actions(code)
                problems.append(f"decode({code!r}) should be ambiguous")
            except AmbiguousReading:
                pass
    _verdict(2, "abbreviation codec identity over legal chains <= 6", problems)


def test_criterion_3_legality_table(library, toast, picnic, take, signal):
    problems = []
    admitted = {
        (a, b, same)
        for a, b, same in itertools.product(ActionKind, ActionKind, (True, False))
        if legal_successor(a, b, same)
    }
    if admitted != GOLDEN_PAIRS:
        problems.append(
            f"table admits {len(admitted)} pairs, wanted the golden 8"
        )
    for result in (library, toast, picnic, take, signal):
        m = result.model
        for flow in m.flows.values():
            src, dst = m.stages[flow.src], m.stages[flow.dst]
            same = src.owner == dst.owner or m.nesting_related(src.owner, dst.owner)
            if not legal_successor(src.kind, dst.kind, same):
                problems.append(f"corpus flow {m.stage_ref(flow.src)} is illegal")
    rng = random.Random(42)
    for i in range(1000):
        m = random_legal_model(rng)
        bad = [d for d in validate(m) if d.code in ("V2", "V3")]
        if bad:
            problems.append(f"random model {i} produced {bad[0].code}")
            break
    _verdict(3, "legality table: 8 pairs, corpus flows, 1000 random models", problems)


def test_criterion_4_toast_end_to_end(toast, corpus_dir):
    problems = []
    m = toast.model
    scenario = load_scenario(m, (corpus_dir / "scenarios" / "toast.scn").read_text())
    trace = run(m, scenario)
    proj = project(m, trace, toast.events)
    want = ["jones_appears", "toast_arrives", "butter_arrives", "toast_buttered"]
    got = [ev.name for ev in proj.events]
    if got != want:
        problems.append(f"projected {got}, wanted {want}")
    report = conforms(toast.behaviors["breakfast"], proj.events)
    if not report.ok:
        problems.append(f"trace does not conform: {report.problems}")
    _verdict(4, "toast narrated order and conformance", problems)


def test_criterion_5_library_scenarios(library, corpus_dir, golden_dir):
    problems = []
    m = library.model
    for name in ("add_new_book", "edit_book"):
        text = (corpus_dir / "scenarios" / f"{name}.scn").read_text()
        first = run(m, load_scenario(m, text))
        second = run(m, load_scenario(m, text))
        if render_trace(m, first) != render_trace(m, second):
            problems.append(f"{name}: repeated runs differ")
        golden_trace = (golden_dir / f"{name}.trace").read_text()
        if render_trace(m, first) + "\n" != golden_trace:
            problems.append(f"{name}: trace differs from the frozen walk")
        proj = project(m, first, library.events)
        want = (golden_dir / f"{name}.projection").read_text().split()
        got = [ev.name for ev in proj.events]
        if got != want:
            problems.append(f"{name}: projection {got} != {want}")
        if not conforms(library.behaviors["library"], proj.events).ok:
            problems.append(f"{name}: projection does not conform")
    _verdict(5, "library scenario projections, deterministic traces", problems)


def test_criterion_6_genericity_enforcement():
    problems = []
    lexicon = default_lexicon()
    for verb in TEN_VERBS:
        try:
            steps = lexicon.decomposition(verb)
        except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
            problems.append(f"{verb}: lexicon failed ({exc})")
            continue
        for (role_a, kind_a), (role_b, kind_b) in zip(steps, steps[1:]):
            if not legal_successor(kind_a, kind_b, role_a == role_b):
                problems.append(f"{verb}: decomposition breaks the table")
        rejected = parse(f"thimac x {{ {verb}; }}")
        if rejected.ok or not any(
            "not a generic action" in d.message for d in rejected.diagnostics
        ):
            problems.append(f"{verb}: accepted as a stage keyword")
    for word in ("low", "high"):
        rejected = parse(f"thimac x {{ {word}; }}")
        if rejected.ok or not any(
            "not a generic action" in d.message for d in rejected.diagnostics
        ):
            problems.append(f"{word}: accepted as an action kind")
    _verdict(6, "ten verbs normalize or reject; low/high rejected", problems)


def test_criterion_7_event_movement(picnic):
    problems = []
    m = picnic.model
    by_name = {ev.name: ev for ev in picnic.events}
    inside = by_name["picnic_in_building"]
    moving = by_name["picnic_moving"]
    garden = by_name["picnic_in_garden"]
    delta = event_moved(inside, garden)
    if delta.left != inside.region:
        problems.append("left is not the building-region stage set")
    if delta.entered != garden.region:
        problems.append("entered is not the garden-region stage set")
    if delta.retained != frozenset():
        problems.append("retained should be empty for the clean move")
    if delta.fuzzy:
        problems.append("the clean move must not be fuzzy")
    straddle = event_moved(inside, moving)
    if not straddle.fuzzy:
        problems.append("the intermediate event must be fuzzy")
    ref = {m.stage_ref(s) for s in straddle.retained}
    if ref != {"building.process"}:
        problems.append(f"intermediate retains {sorted(ref)}")
    _verdict(7, "picnic region deltas and fuzzy intermediate", problems)


def test_criterion_8_parser_robustness():
    problems = []
    rng = random.Random(20260817)
    wild = (
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        "{}[];,.->=#\"\\'\n\t \x00\x7f§µ→🙂"
    )
    fragments = [
        "thimac", "flow", "trigger", "event", "behavior", "region", "time",
        "carries", "anchor", "as", "create", "process", "release",
        "transfer", "receive", "{", "}", "[", "]", ";", "->", "=>", "..",
        ".", "x", "y1", "42", '"s"', "\n",
    ]
    cases = 0
    for i in range(100_000):
        if i % 2:
            text = "".join(
                rng.choice(wild) for _ in range(rng.randrange(0, 40))
            )
        else:
            text = " ".join(
                rng.choice(fragments) for _ in range(rng.randrange(0, 12))
            )
        try:
            result = parse(text)
        except Exception as exc:  # noqa: BLE001 - any crash fails the gate
            problems.append(f"case {i}: parser raised {type(exc).__name__}")
            break
        cases += 1
        for d in result.diagnostics:
            if d.line < 1 or d.column < 1:
                problems.append(f"case {i}: rejection without a position")
                break
        if problems:
            break
    if cases < 100_000 and not problems:
        problems.append(f"only {cases} cases ran")
    _verdict(8, "parser fuzzing: 100000 cases, positioned rejections", problems)
