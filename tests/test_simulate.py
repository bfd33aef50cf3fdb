"""Tick-by-tick thing flow, scenarios, projection, conformance."""

import sys
import tracemalloc

import pytest

import reference_sim
from conftest import TAKE_EDITS, chain_events, chain_texts, parse_corpus
from thimac import simulate
from thimac.dsl import _CHUNK, parse
from thimac.events import EventDef, TimeSubthimac
from thimac.model import ActionKind, new_model
from thimac.simulate import (
    ScenarioError,
    StuckThing,
    ThingInstance,
    Trace,
    UnknownEventInProjection,
    conforms,
    load_scenario,
    project,
    render_trace,
    run,
)


def scn(corpus_dir, name):
    return (corpus_dir / "scenarios" / name).read_text()


def entry_tuples(model, trace):
    return [
        (t, thing, model.stage_ref(trace.stages[n][0]), trace.stages[n][1])
        for t, n, thing in zip(trace.ticks, trace.numbers, trace.labels)
    ]


# ---------------------------------------------------------------------------
# scenario parsing


def test_empty_scenario_defaults(library):
    s = load_scenario(library.model, "# nothing here\n\n")
    assert s.injections == ()
    assert s.choices == {}
    assert s.max_ticks == 1000


@pytest.mark.parametrize(
    "text, lineno, needle",
    [
        ("warp 3", 1, "unknown directive"),
        ("inject x librarian.request y", 1, "bad tick"),
        ("inject 0 nowhere x", 1, "unknown thimac"),
        ("inject 0 librarian.request", 1, "expected: inject"),
        ("inject 0 librarian basket", 1, "no create stage"),
        ("choose nowhere.at.all 0 1", 1, "unknown stage"),
        ("choose system.booklist.transfer 0 999", 1, "no flow has anchor"),
        ("choose system.booklist.transfer x 1", 1, "bad occurrence"),
        ("max 0", 1, "expected: max"),
        ("max many", 1, "expected: max"),
        ("# fine\nmax 10\nwarp 3", 3, "unknown directive"),
        ("max ²", 1, "expected: max"),
        ("inject ² librarian.request x", 1, "bad tick"),
        ("choose system.booklist.transfer ² 1", 1, "bad occurrence"),
        ("choose system.booklist.transfer 0 ²", 1, "unknown flow"),
        (
            "inject 0 librarian.request x\ninject 3 librarian.request x",
            2,
            "duplicate inject label",
        ),
        # only "\n" ends a line, as in model files
        ("inject 0 librarian.request p0\x0cwarp 3", 1, "expected: inject"),
        ("inject 0 librarian.request p0\n\x85\nwarp 3", 3, "unknown directive"),
        ("choose system.booklist.transfer 0", 1, "expected: choose"),
        ("\ufeffwarp 3", 1, "unknown directive 'warp'"),
    ],
)
def test_scenario_errors_carry_line_numbers(library, text, lineno, needle):
    with pytest.raises(ScenarioError) as exc:
        load_scenario(library.model, text)
    assert exc.value.line == lineno
    assert needle in str(exc.value)
    assert f"line {lineno}:" in str(exc.value)


def test_duplicate_choice_is_rejected(library):
    text = (
        "choose system.booklist.transfer 0 15\n"
        "choose system.booklist.transfer 0 25\n"
    )
    with pytest.raises(ScenarioError) as exc:
        load_scenario(library.model, text)
    assert exc.value.line == 2
    assert "duplicate choice" in str(exc.value)


def test_choice_accepts_flow_id_or_anchor(take):
    m = take.model
    by_anchor = load_scenario(m, "choose b.transfer 1 8")
    fid = next(f.id for f in m.flows.values() if f.anchor == 8)
    by_id = load_scenario(m, f"choose b.transfer 1 {fid}")
    assert by_anchor.choices == by_id.choices


# ---------------------------------------------------------------------------
# the toast walk, tick by tick


def test_toast_walk(toast, corpus_dir):
    m = toast.model
    trace = run(m, load_scenario(m, scn(corpus_dir, "toast.scn")))
    rows = entry_tuples(m, trace)

    assert rows[0] == (0, "jones", "jones.create", ActionKind.CREATE)
    # the toast reaches the receiving hand at t5 and rests there, gated
    assert (5, "toast", "jones.toast_hand.receive", ActionKind.RECEIVE) in rows
    assert not [r for r in rows if r[1] == "toast" and 5 < r[0] < 12]
    # the butter pass finishes at t11, waking the toast for t12
    assert rows[-2] == (
        11,
        "butter",
        "jones.butter_hand.process",
        ActionKind.PROCESS,
    )
    assert rows[-1] == (
        12,
        "toast",
        "jones.toast_hand.process",
        ActionKind.PROCESS,
    )
    assert trace.final_tick == 12
    assert len(rows) == 13

    buttering = m.resolve_stage_ref("jones.toast_hand.process")
    assert trace.things["toast"].stage == buttering
    assert trace.things["toast"].resting


def test_toast_projection_and_conformance(toast, corpus_dir):
    m = toast.model
    trace = run(m, load_scenario(m, scn(corpus_dir, "toast.scn")))
    proj = project(m, trace, toast.events)
    assert [ev.name for ev in proj.events] == [
        "jones_appears",
        "toast_arrives",
        "butter_arrives",
        "toast_buttered",
    ]
    assert proj.uncovered == ()
    report = conforms(toast.behaviors["breakfast"], proj.events)
    assert report.ok and report.problems == ()


# ---------------------------------------------------------------------------
# the library, against frozen walks


@pytest.mark.parametrize(
    "scenario, golden",
    [
        ("add_new_book.scn", "add_new_book"),
        ("edit_book.scn", "edit_book"),
    ],
)
def test_library_traces_match_goldens(
    library, corpus_dir, golden_dir, scenario, golden
):
    m = library.model
    trace = run(m, load_scenario(m, scn(corpus_dir, scenario)))
    want = (golden_dir / f"{golden}.trace").read_text()
    assert render_trace(m, trace) + "\n" == want

    proj = project(m, trace, library.events)
    names = [ev.name for ev in proj.events]
    assert names == (golden_dir / f"{golden}.projection").read_text().split()
    assert proj.uncovered == ()
    assert conforms(library.behaviors["library"], proj.events).ok


def test_runs_are_deterministic(library, corpus_dir):
    m = library.model
    text = scn(corpus_dir, "edit_book.scn")
    first = run(m, load_scenario(m, text))
    second = run(m, load_scenario(m, text))
    assert render_trace(m, first) == render_trace(m, second)
    assert first.final_tick == second.final_tick


class _Discard:
    """A text stream that keeps nothing but the number of writes."""

    writes = 0

    def write(self, text: str) -> None:
        self.writes += 1


def test_streaming_a_trace_never_holds_its_whole_text():
    m = parse("thimac a { create; }\n").model
    rows = 20_000
    trace = run(m, load_scenario(m, "".join(f"inject 0 a t{i}\n" for i in range(rows))))
    assert len(trace.labels) == rows
    size = len(render_trace(m, trace))
    sink = _Discard()
    tracemalloc.start()
    try:
        assert render_trace(m, trace, out=sink) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.writes == -(-rows // _CHUNK)
    assert peak < size / 4, (peak, size)


def test_choice_for_the_wrong_stage_means_stuck(library, corpus_dir):
    m = library.model
    text = (
        "inject 0 librarian.request add-book\n"
        "choose system.booklist.transfer 0 2\n"  # anchor 2 leaves elsewhere
        "max 200\n"
    )
    with pytest.raises(StuckThing) as exc:
        run(m, load_scenario(m, text))
    assert exc.value.stage_ref == "system.booklist.transfer"
    assert "does not leave that stage" in str(exc.value)


# ---------------------------------------------------------------------------
# branching defaults and occurrence counting


def test_take_branches_low_anchor_then_explicit(take, corpus_dir):
    m = take.model
    trace = run(m, load_scenario(m, scn(corpus_dir, "take.scn")))
    rows = entry_tuples(m, trace)
    # first departure from b.transfer defaults to the lowest anchor (4)
    assert rows[4] == (4, "parcel", "b.receive", ActionKind.RECEIVE)
    # second departure honours the explicit choice of anchor 8
    assert rows[8] == (8, "parcel", "c.transfer", ActionKind.TRANSFER)
    assert rows[-1] == (9, "parcel", "c.receive", ActionKind.RECEIVE)
    assert trace.final_tick == 9


def test_take_projection_reports_uncovered_create(take, corpus_dir):
    m = take.model
    trace = run(m, load_scenario(m, scn(corpus_dir, "take.scn")))
    proj = project(m, trace, take.events)
    assert [ev.name for ev in proj.events] == [
        "take_thing",
        "process_thing",
        "put_thing",
    ]
    assert proj.uncovered == ("a.create",)
    assert conforms(take.behaviors["handoff"], proj.events).ok


# ---------------------------------------------------------------------------
# trigger births, tick caps, lapsed awakenings


def ping_pong_model():
    m = new_model()
    x = m.add_thimac("x")
    y = m.add_thimac("y")
    xc = m.add_stage(x, ActionKind.CREATE)
    xp = m.add_stage(x, ActionKind.PROCESS)
    yc = m.add_stage(y, ActionKind.CREATE)
    yp = m.add_stage(y, ActionKind.PROCESS)
    m.add_flow(xc, xp)
    m.add_flow(yc, yp)
    m.add_trigger(xp, yc)
    m.add_trigger(yp, xc)
    return m


def test_max_ticks_caps_an_endless_chatter():
    m = ping_pong_model()
    s = load_scenario(m, "inject 0 x first\nmax 7\n")
    trace = run(m, s)
    assert trace.labels  # it did run
    assert max(trace.ticks) < 7
    assert trace.final_tick < 7


@pytest.mark.parametrize(
    "text, truncated",
    [
        ("inject 0 x first\nmax 7\n", True),  # still chattering at the cap
        ("inject 7 x late\nmax 7\n", True),  # a birth due at the cap
        ("inject 0 x first\ninject 9 x late\nmax 7\n", True),  # one past it
        ("", False),
    ],
)
def test_truncated_marks_work_left_at_the_cap(text, truncated):
    m = ping_pong_model()
    assert run(m, load_scenario(m, text)).truncated is truncated


def test_a_run_that_ends_before_its_cap_is_not_truncated(toast, corpus_dir):
    m = toast.model
    trace = run(m, load_scenario(m, scn(corpus_dir, "toast.scn")))
    assert not trace.truncated


def test_triggered_births_are_named_after_the_owner():
    m = ping_pong_model()
    trace = run(m, load_scenario(m, "inject 0 x first\nmax 9\n"))
    assert {"first", "y-1", "x-1", "y-2"} <= set(trace.labels)
    # each birth lands on the create stage one tick after the trigger
    first = trace.labels.index("y-1")
    assert trace.ticks[first] == 2
    assert trace.stages[trace.numbers[first]][1] is ActionKind.CREATE


def one_trigger_model():
    """x.process => y.create, the only trigger."""
    m = new_model()
    x = m.add_thimac("x")
    y = m.add_thimac("y")
    xp = m.add_stage(x, ActionKind.PROCESS)
    m.add_flow(m.add_stage(x, ActionKind.CREATE), xp)
    m.add_trigger(xp, m.add_stage(y, ActionKind.CREATE))
    return m


@pytest.mark.parametrize("label", ["y-1", "y-12"])
def test_inject_label_a_trigger_could_birth_is_rejected(label):
    m = one_trigger_model()
    with pytest.raises(ScenarioError) as exc:
        load_scenario(m, f"inject 0 x a\ninject 0 y {label}\n")
    assert exc.value.line == 2
    assert "reserved for trigger-born things" in str(exc.value)


@pytest.mark.parametrize("label", ["x-1", "y-0", "y-01", "y-", "yy-1", "y"])
def test_inject_labels_no_birth_can_take_are_accepted(label):
    m = one_trigger_model()
    trace = run(m, load_scenario(m, f"inject 0 x a\ninject 0 y {label}\n"))
    assert sorted(trace.things) == sorted(["a", label, "y-1"])


def test_a_trigger_that_leaves_no_process_stage_reserves_no_label():
    """Only a process stage fires triggers, so x.create => y.create never
    births a thing and ``y-1`` is free to inject."""
    m = new_model()
    x, y = m.add_thimac("x"), m.add_thimac("y")
    xc = m.add_stage(x, ActionKind.CREATE)
    m.add_flow(xc, m.add_stage(x, ActionKind.PROCESS))
    m.add_trigger(xc, m.add_stage(y, ActionKind.CREATE))
    trace = run(m, load_scenario(m, "inject 0 x a\ninject 0 y y-1\n"))
    assert sorted(trace.things) == ["a", "y-1"]
    assert set(trace.labels) == {"a", "y-1"}


def test_births_are_numbered_per_owner_name():
    m = new_model()
    creates = {}
    for outer in ("x", "y"):  # x.req and y.req: two create stages, one name
        tid = m.add_thimac(outer)
        process = m.add_stage(tid, ActionKind.PROCESS)
        m.add_flow(m.add_stage(tid, ActionKind.CREATE), process)
        creates[outer] = m.add_stage(m.add_thimac("req", tid), ActionKind.CREATE)
        m.add_trigger(process, creates[outer])
    trace = run(m, load_scenario(m, "inject 0 x a\ninject 0 y b\n"))
    assert len(trace.things) == 4
    assert trace.things["req-1"].stage == creates["x"]
    assert trace.things["req-2"].stage == creates["y"]
    assert trace.labels.count("req-1") == 1


def test_awakening_with_nowhere_to_go_lapses():
    m = new_model()
    x = m.add_thimac("x")
    z = m.add_thimac("z")
    xc = m.add_stage(x, ActionKind.CREATE)
    xp = m.add_stage(x, ActionKind.PROCESS)
    zc = m.add_stage(z, ActionKind.CREATE)
    zp = m.add_stage(z, ActionKind.PROCESS)
    m.add_flow(xc, xp)
    m.add_flow(zc, zp)
    m.add_trigger(xp, zp)  # wakes z.process, which has no way out
    s = load_scenario(m, "inject 0 x impulse\ninject 0 z sleeper\nmax 20\n")
    trace = run(m, s)
    ticks = [t for t, label in zip(trace.ticks, trace.labels) if label == "sleeper"]
    assert ticks == [0, 1]
    assert trace.things["sleeper"].resting
    assert trace.final_tick == 1


# ---------------------------------------------------------------------------
# projection and conformance odds and ends


def test_picnic_run_projects_all_three_events(picnic, corpus_dir):
    m = picnic.model
    trace = run(m, load_scenario(m, scn(corpus_dir, "picnic.scn")))
    proj = project(m, trace, picnic.events)
    assert [ev.name for ev in proj.events] == [
        "picnic_in_building",
        "picnic_moving",
        "picnic_in_garden",
    ]
    assert conforms(picnic.behaviors["afternoon"], proj.events).ok


def test_conforms_transitive_bridges_skipped_events(picnic):
    behavior = picnic.behaviors["afternoon"]
    inside = behavior.events["picnic_in_building"]
    garden = behavior.events["picnic_in_garden"]
    strict = conforms(behavior, [inside, garden])
    assert not strict.ok
    assert strict.problems == (
        "picnic_in_building -> picnic_in_garden is not an allowed succession",
    )
    loose = conforms(behavior, [inside, garden], transitive=True)
    assert loose.ok


def test_conforms_builds_one_problem_per_distinct_pair(picnic):
    behavior = picnic.behaviors["afternoon"]
    inside = behavior.events["picnic_in_building"]
    garden = behavior.events["picnic_in_garden"]
    report = conforms(behavior, [inside, garden, inside, garden])
    problem = "picnic_in_building -> picnic_in_garden is not an allowed succession"
    assert report.problems == (problem, "picnic_in_garden -> picnic_in_building "
                               "is not an allowed succession", problem)
    assert report.problems[0] is report.problems[2]


@pytest.mark.parametrize("name", ["trigger to s999", "flow to s999"])
def test_an_arrow_into_no_stage_is_a_simulation_error(name, corpus_dir):
    m = parse_corpus("take").model
    TAKE_EDITS[name][0](m)
    with pytest.raises(simulate.SimulationError, match="ends at unknown stage 's999'"):
        run(m, load_scenario(m, scn(corpus_dir, "take.scn")))


def test_a_stage_of_a_missing_thimac_is_a_simulation_error(corpus_dir):
    m = parse_corpus("take").model
    TAKE_EDITS["b.receive owned by missing t99"][0](m)
    scenario = load_scenario(m, scn(corpus_dir, "take.scn"))
    with pytest.raises(simulate.SimulationError, match="stage s5 belongs to missing thimac 't99'"):
        run(m, scenario)


def test_repeated_event_needs_an_explicit_cycle(picnic):
    behavior = picnic.behaviors["afternoon"]
    inside = behavior.events["picnic_in_building"]
    report = conforms(behavior, [inside, inside], transitive=True)
    assert not report.ok


def test_unknown_projected_event_raises(picnic):
    behavior = picnic.behaviors["afternoon"]
    ghost = EventDef(id="ghost", name="ghost", region=frozenset())
    with pytest.raises(UnknownEventInProjection):
        conforms(behavior, [ghost])


def test_entries_carry_unit_intervals(take, corpus_dir):
    m = take.model
    trace = run(m, load_scenario(m, scn(corpus_dir, "take.scn")))
    assert trace.entries[0].time == TimeSubthimac(0, 1)
    assert all(e.time.end == e.time.start + 1 for e in trace.entries)


def test_empty_scenario_runs_to_an_empty_trace(take):
    m = take.model
    trace = run(m, load_scenario(m, ""))
    assert trace.ticks == trace.numbers == trace.labels == []
    assert trace.final_tick == 0
    assert trace.things == {}


def test_the_cli_path_reads_columns_and_builds_no_entry(library, corpus_dir):
    m = library.model
    trace = run(m, load_scenario(m, scn(corpus_dir, "add_new_book.scn")))
    proj = project(m, trace, library.events)
    printed = render_trace(m, trace).splitlines()
    assert conforms(library.behaviors["library"], proj.events).ok
    assert "entries" not in vars(trace)
    entries = trace.entries
    assert [f"{e.time.start} {e.thing} {m.stage_ref(e.stage)} {e.kind.value}"
            for e in entries] == printed
    assert trace.entries is entries  # built once, then kept
    assert all(e.time == TimeSubthimac(e.time.start, e.time.start + 1) for e in trace.entries)


# ---------------------------------------------------------------------------
# the entry budget

#: births that feed births: each arrival at a.process births two things
MULTIPLYING = (
    "thimac a { create; process; }\n"
    "flow a.create -> a.process;\n"
    "trigger a.process => a.create;\n"
    "trigger a.process => a.create;\n"
)


def test_budget_stops_births_that_feed_births_as_the_reference_engine_does(
    monkeypatch,
):
    monkeypatch.setattr(simulate, "ENTRY_BUDGET", 1000)
    m = parse(MULTIPLYING).model
    scenario = load_scenario(m, "inject 0 a p0\n")
    trace = run(m, scenario)
    with pytest.raises(reference_sim.OverBudget) as over:
        reference_sim.run(m, scenario, budget=1000)
    assert trace.truncated
    assert len(trace.labels) == over.value.args[0] == 1022  # checked once a tick
    capped = run(m, load_scenario(m, f"inject 0 a p0\nmax {trace.final_tick + 1}\n"))
    assert capped == trace


def test_a_run_that_ends_within_its_budget_is_not_truncated(
    toast, corpus_dir, monkeypatch
):
    m = toast.model
    scenario = load_scenario(m, scn(corpus_dir, "toast.scn"))
    whole = run(m, scenario)
    assert simulate.ENTRY_BUDGET == 1_000_000 and not whole.truncated
    monkeypatch.setattr(simulate, "ENTRY_BUDGET", len(whole.labels))
    exact = run(m, scenario)
    assert exact == whole
    monkeypatch.setattr(simulate, "ENTRY_BUDGET", len(whole.labels) - 1)
    assert run(m, scenario).truncated


# ---------------------------------------------------------------------------
# the trace's columns


def test_a_run_keeps_its_trace_as_columns_not_rows():
    """About 20,000 entries cost fewer than 40 bytes each in the returned
    trace: three list slots, with every tick, number and label shared; a
    (tick, number, thing, stage id, kind) tuple an entry costs 88."""
    model_text, scenario_text = chain_texts(49, 100)
    m = parse(model_text).model
    scenario = load_scenario(m, scenario_text)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(m, scenario)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = 100 * (3 + 4 * 49)
    assert trace.final_tick == 99 + 2 + 4 * 49 and not trace.truncated
    assert kept < 40 * entries, kept / entries
    assert len(trace.labels) == entries
    assert "entries" not in vars(trace)


@pytest.mark.skipif(
    sys.version_info >= (3, 14),
    reason="from 3.14 on, tuple() over an iterator fills a list and then copies it",
)
def test_project_keeps_no_second_copy_of_its_events():
    """About 5,000 events projected from about 20,000 entries: the tuple of
    events is built straight from the closed runs, at most 12 bytes an
    event at the peak; a list beside the tuple costs about 17."""
    model_text, scenario_text = chain_texts(20, 250)
    result = parse(model_text + chain_events(20))
    m = result.model
    trace = run(m, load_scenario(m, scenario_text))
    assert len(trace.labels) == 250 * (3 + 4 * 20) and not trace.truncated
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = project(m, trace, result.events)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert type(got.events) is tuple and len(got.events) > 5_000
    assert peak < 12 * len(got.events), peak / len(got.events)
    assert (got.events, got.uncovered) == reference_sim.project(m, trace, result.events)


def corpus_runs(corpus_dir):
    for model, scenarios in (
        ("library", ("add_new_book", "edit_book")),
        ("toast", ("toast",)),
        ("take", ("take",)),
        ("picnic", ("picnic",)),
    ):
        result = parse_corpus(model)
        for name in scenarios:
            yield result, load_scenario(result.model, scn(corpus_dir, f"{name}.scn"))


def test_the_reference_engine_builds_an_equal_trace(corpus_dir):
    """The reference engine keeps its own entry tuples and builds its trace
    through the columns constructor; it equals ``run``'s, and gives the same
    text and projection."""
    for result, scenario in corpus_runs(corpus_dir):
        m = result.model
        got, want = run(m, scenario), reference_sim.run(m, scenario)
        assert want == got
        assert reference_sim.render_trace(m, want) == render_trace(m, got)
        assert project(m, want, result.events) == project(m, got, result.events)


def test_a_trace_compares_by_its_columns():
    """Equality covers each column, the stage map, the things and
    ``truncated``; the repr names them in that order."""
    fields = {
        "ticks": [0, 2],
        "numbers": [0, 1],
        "labels": ["a", "a"],
        "stages": {0: ("s0", ActionKind.CREATE), 1: ("s1", ActionKind.PROCESS)},
        "things": {"a": ThingInstance("a", "s1", born_at=0, entered_at=2, resting=True)},
        "truncated": False,
    }
    trace = Trace(**fields)
    assert trace == Trace(**fields) and trace.final_tick == 2
    for name, other in (
        ("ticks", [0, 1]),
        ("numbers", [0, 0]),
        ("labels", ["a", "b"]),
        ("stages", {**fields["stages"], 1: ("s1", ActionKind.RELEASE)}),
        ("things", {"a": ThingInstance("a", "s1", born_at=0, entered_at=2)}),
        ("truncated", True),
    ):
        assert trace != Trace(**{**fields, name: other}), name
    assert repr(trace) == f"Trace({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    assert Trace([], [], [], {}, {}).final_tick == 0
