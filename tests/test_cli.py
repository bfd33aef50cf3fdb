"""End-to-end command line checks (subprocess level)."""

import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import thimac
from conftest import chain_events, chain_texts
from thimac import cli as cli_mod
from thimac import simulate
from thimac.dsl import _CHUNK, parse, serialize

LIB = "corpus/library.tm"
TOAST = "corpus/toast.tm"
TAKE = "corpus/take.tm"
PICNIC = "corpus/picnic.tm"


# ---------------------------------------------------------------------------
# validate


def test_validate_clean_model_exits_zero(cli):
    r = cli("validate", LIB)
    assert r.returncode == 0
    assert r.stdout == "0 error(s), 0 warning(s)\n"
    assert r.stderr == ""


def test_validate_reports_chronology_warnings(cli):
    r = cli("validate", TOAST)
    assert r.returncode == 0
    assert r.stdout == "0 error(s), 2 warning(s)\n"
    assert "B1 warning corpus/toast.tm" in r.stderr
    assert "B2 warning corpus/toast.tm" in r.stderr


def test_validate_reports_unused_stage(cli, tmp_path):
    f = tmp_path / "m.tm"
    f.write_text(
        "thimac x { create; process; release; }\n"
        "flow x.create -> x.process;\n"
    )
    r = cli("validate", str(f))
    assert r.returncode == 0
    assert r.stdout == "0 error(s), 1 warning(s)\n"
    assert "V5 warning" in r.stderr
    assert "x.release" in r.stderr


#: an unused stage on line 7, another on line 8, an inward transfer on line 3
UNUSED_AND_INWARD = (
    "thimac a {\n"
    "  create;\n"
    "  release; transfer;\n"
    "}\n"
    "\n"
    "thimac b {\n"
    "  create;\n"
    "  process;\n"
    "}\n"
    "flow a.create -> a.release;\n"
    "flow a.release -> a.transfer;\n"
)


def test_validate_prints_the_source_line_of_each_v5_v6_stage(cli, tmp_path):
    f = tmp_path / "m.tm"
    f.write_text(UNUSED_AND_INWARD)
    r = cli("validate", str(f))
    assert r.returncode == 0
    assert r.stderr.splitlines() == [
        f"V5 warning {f}:7 b.create - stage has no incident flow or trigger "
        "(dead potentiality)",
        f"V5 warning {f}:8 b.process - stage has no incident flow or trigger "
        "(dead potentiality)",
        f"V6 warning {f}:3 a.transfer - transfer stage never crosses toward "
        "another machine",
    ]


def test_validate_json_payload(cli):
    r = cli("validate", "--json", TOAST)
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert [d["code"] for d in payload] == ["B1", "B2"]
    assert all(d["severity"] == "warning" for d in payload)
    assert json.loads(cli("validate", "--json", LIB).stdout) == []


def test_validate_json_payload_carries_source_lines(cli, tmp_path):
    f = tmp_path / "m.tm"
    f.write_text(UNUSED_AND_INWARD)
    payload = json.loads(cli("validate", "--json", str(f)).stdout)
    assert [(d["code"], d["subject"], d["line"]) for d in payload] == [
        ("V5", "b.create", 7),
        ("V5", "b.process", 8),
        ("V6", "a.transfer", 3),
    ]
    toast = json.loads(cli("validate", "--json", TOAST).stdout)
    assert all(d["line"] > 0 for d in toast)


#: ``validate --json`` on UNUSED_AND_INWARD, byte for byte
UNUSED_AND_INWARD_JSON = """\
[
  {
    "code": "V5",
    "severity": "warning",
    "subject": "b.create",
    "message": "stage has no incident flow or trigger (dead potentiality)",
    "line": 7
  },
  {
    "code": "V5",
    "severity": "warning",
    "subject": "b.process",
    "message": "stage has no incident flow or trigger (dead potentiality)",
    "line": 8
  },
  {
    "code": "V6",
    "severity": "warning",
    "subject": "a.transfer",
    "message": "transfer stage never crosses toward another machine",
    "line": 3
  }
]
"""


def test_validate_json_bytes_are_pinned(cli, tmp_path):
    f = tmp_path / "m.tm"
    f.write_text(UNUSED_AND_INWARD)
    r = cli("validate", "--json", str(f))
    assert r.returncode == 0
    assert r.stdout == UNUSED_AND_INWARD_JSON


def test_validate_json_prints_the_bytes_of_json_dumps(cli, tmp_path):
    """Forty V5 and thirty-nine B1 findings, more than one chunk of the
    encoder's pieces: the bytes of ``json.dumps(..., indent=2)`` and a
    newline."""
    f = tmp_path / "m.tm"
    n = 40
    f.write_text(
        "".join(f"thimac x{i} {{ create; process; release; }}\n" for i in range(n))
        + "".join(f"flow x{i}.create -> x{i}.process;\n" for i in range(n))
        + "".join(f"event e{i} {{ region [x{i}.create, x{i}.process] }}\n" for i in range(n))
        + "behavior walk {\n" + "".join(f"  e{i} -> e{i + 1};\n" for i in range(n - 1)) + "}\n"
    )
    result = parse(f.read_text())
    diags = thimac.validate(result.model) + cli_mod._check_behavior(result, "walk")
    assert {d.code for d in diags} == {"V5", "B1"}
    r = cli("validate", "--json", str(f))
    assert r.returncode == 0
    assert r.stdout == json.dumps([d._asdict() for d in diags], indent=2) + "\n"


def test_syntax_error_exits_two(cli, tmp_path):
    f = tmp_path / "broken.tm"
    f.write_text("thimac x { take; }\n")
    r = cli("validate", str(f))
    assert r.returncode == 2
    assert "not a generic action" in r.stderr
    assert r.stdout == ""


def test_illegal_flow_is_rejected_at_parse(cli, tmp_path):
    f = tmp_path / "illegal.tm"
    f.write_text(
        "thimac x { create; transfer; }\n"
        "flow x.create -> x.transfer;\n"
    )
    r = cli("validate", str(f))
    assert r.returncode == 2
    assert "create" in r.stderr and "transfer" in r.stderr


# ---------------------------------------------------------------------------
# usage problems


def test_unknown_subcommand_exits_four(cli):
    assert cli("frobnicate", LIB).returncode == 4


def test_no_arguments_exits_four(cli):
    assert cli().returncode == 4


def test_missing_file_exits_four(cli):
    r = cli("validate", "no/such/file.tm")
    assert r.returncode == 4
    assert "cannot read" in r.stderr


def test_unknown_event_name_exits_four(cli):
    r = cli("events", LIB, "--encode", "nope")
    assert r.returncode == 4
    assert "no event named" in r.stderr


def test_version_flag(cli):
    r = cli("--version")
    assert r.returncode == 0
    assert r.stdout.strip() == "0.1.0"


def test_importing_the_cli_skips_dataclasses_and_inspect():
    """Every child pays for what ``import thimac.cli`` loads; ``-S`` keeps
    ``.pth`` files from loading modules first.  ``pathlib`` brings in
    ``urllib.parse`` and ``ipaddress``."""
    src = Path(thimac.__file__).resolve().parent.parent
    code = (
        "import sys, thimac.cli; "
        "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    r = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


# ---------------------------------------------------------------------------
# events


def test_events_listing_with_codes_and_times(cli):
    r = cli("events", PICNIC)
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "picnic_in_building CP [2 stages] time 0..5",
        "picnic_moving PRTTR [5 stages] time 5..10",
        "picnic_in_garden RP [2 stages] time 10..15",
    ]


def test_events_listing_marks_nonlinear_regions(cli):
    r = cli("events", LIB)
    lines = dict(
        (line.split()[0], line) for line in r.stdout.splitlines()
    )
    assert lines["request_transaction"].startswith(
        "request_transaction CRTTRP [6 stages]"
    )
    assert lines["fill_and_submit_record"].startswith(
        "fill_and_submit_record - [7 stages]"
    )


def test_events_encode(cli):
    r = cli("events", LIB, "--encode", "request_transaction")
    assert r.returncode == 0
    assert r.stdout == "CRTTRP\n"


def test_events_encode_empty_name_exits_four(cli):
    r = cli("events", TOAST, "--encode", "")
    assert r.returncode == 4
    assert r.stdout == ""
    assert "no event named ''" in r.stderr


def test_events_encode_nonlinear_fails(cli):
    r = cli("events", LIB, "--encode", "fill_and_submit_record")
    assert r.returncode == 1
    assert "not a single flow chain" in r.stderr


def test_events_decode(cli):
    r = cli("events", LIB, "--decode", "CRTTRP")
    assert r.returncode == 0
    assert r.stdout == "create release transfer transfer receive process\n"


def test_events_decode_empty_code_prints_an_empty_line(cli):
    r = cli("events", TOAST, "--decode", "")
    assert r.returncode == 0
    assert r.stdout == "\n"


def test_events_decode_failures(cli):
    ambiguous = cli("events", LIB, "--decode", "R")
    assert ambiguous.returncode == 1
    bad_letter = cli("events", LIB, "--decode", "X")
    assert bad_letter.returncode == 1
    no_reading = cli("events", LIB, "--decode", "PC")
    assert no_reading.returncode == 1


# ---------------------------------------------------------------------------
# behavior


def test_behavior_prints_edges(cli):
    r = cli("behavior", TAKE)
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "take_thing -> process_thing",
        "process_thing -> put_thing",
    ]


def test_behavior_dot_output(cli):
    r = cli("behavior", TAKE, "--dot")
    lines = r.stdout.splitlines()
    assert lines[0] == "digraph handoff {"
    assert '  "take_thing";' in lines
    assert '  "take_thing" -> "process_thing";' in lines
    assert lines[-1] == "}"


def test_behavior_unknown_name_exits_four(cli):
    assert cli("behavior", TAKE, "--name", "nope").returncode == 4


def test_behavior_without_any_declared_exits_four(cli, tmp_path):
    f = tmp_path / "plain.tm"
    f.write_text("thimac x { create; process; }\nflow x.create -> x.process;\n")
    r = cli("behavior", str(f))
    assert r.returncode == 4
    assert "no single behavior" in r.stderr


#: Thimac a gets id t1, the name of an event declared on line 5.
B_LINES = (
    "thimac a { create; process; }\n"
    "flow a.create -> a.process;\n"
    "event e2 { region [a.create] }\n"
    "\n"
    "event t1 { region [a.process] }\n"
    "behavior main {\n"
    "  e2 -> t1;\n"
    "  t1 -> e2;\n"
    "  e2 -> t1;\n"
    "}\n"
)


@pytest.mark.parametrize("command", ["validate", "behavior"])
def test_behavior_diagnostics_name_their_source_lines(cli, tmp_path, command):
    assert "t1" in parse(B_LINES).model.thimacs
    f = tmp_path / "c.tm"
    f.write_text(B_LINES)
    r = cli(command, str(f))
    assert r.returncode == 0
    assert [line.split(" - ")[0] for line in r.stderr.splitlines()] == [
        f"B1 warning {f}:8 t1->e2",  # the edge
        f"B2 warning {f}:3 e2",  # the event's declaration
        f"B2 warning {f}:5 t1",
        f"B3 warning {f}:7 e2->t1->e2",  # the cycle's first edge
    ]


# ---------------------------------------------------------------------------
# simulate


def test_simulate_projects_and_conforms(cli):
    r = cli("simulate", LIB, "corpus/scenarios/add_new_book.scn")
    assert r.returncode == 0
    assert r.stdout.splitlines() == [
        "request_transaction",
        "download_list",
        "make_selection",
        "selection_for_addition",
        "fetch_blank_record",
        "fill_and_submit_record",
        "merge_addition",
        "process_merge",
        "updated_list_out",
    ]
    assert "conforms to library" in r.stderr


def test_simulate_trace_matches_golden(cli, golden_dir):
    r = cli("simulate", LIB, "corpus/scenarios/add_new_book.scn", "--trace")
    assert r.returncode == 0
    assert r.stdout == (golden_dir / "add_new_book.trace").read_text()


def _one_stage_run(tmp_path, things: int):
    """A model whose run has one trace row per injected thing, and its files."""
    f = tmp_path / "m.tm"
    f.write_text("thimac a { create; }\nevent made { region [a.create] }\n")
    s = tmp_path / "run.scn"
    s.write_text("".join(f"inject 0 a t{i}\n" for i in range(things)))
    return f, s


@pytest.mark.parametrize("rows", [0, _CHUNK, _CHUNK + 1])
def test_simulate_streams_the_text_render_trace_returns(tmp_path, capsys, rows):
    f, s = _one_stage_run(tmp_path, rows)
    m = parse(f.read_text()).model
    trace = simulate.run(m, simulate.load_scenario(m, s.read_text()))
    assert len(trace.labels) == rows
    want = simulate.render_trace(m, trace) + "\n" if rows else ""
    assert cli_mod.main(["simulate", str(f), str(s), "--trace"]) == 0
    assert capsys.readouterr().out == want
    out = io.StringIO()
    assert simulate.render_trace(m, trace, out=out) is None
    assert out.getvalue() == want


def test_simulate_builds_neither_rows_nor_entries(tmp_path, monkeypatch, capsys):
    """``simulate --trace`` reads the trace's columns only."""
    f, s = tmp_path / "chain.tm", tmp_path / "chain.scn"
    for path, text in zip((f, s), chain_texts(49, 100)):
        path.write_text(text)
    traces = []

    def kept_run(model, scenario):
        traces.append(simulate.run(model, scenario))
        return traces[-1]

    monkeypatch.setattr(cli_mod, "run", kept_run)
    assert cli_mod.main(["simulate", str(f), str(s), "--trace"]) == 0
    out = capsys.readouterr().out
    [trace] = traces
    assert "entries" not in vars(trace)
    assert out.count("\n") == 100 * (3 + 4 * 49)
    assert out.endswith("\n297 t99 m49.out.transfer transfer\n")


def test_simulate_drops_the_trace_before_checking_conformance(tmp_path, monkeypatch, capsys):
    """Conformance and the printing of its problems run with only the model,
    the projection and the scenario alive: the trace is gone by then."""
    f, s = tmp_path / "chain.tm", tmp_path / "chain.scn"
    model_text, scenario_text = chain_texts(3, 5)
    f.write_text(model_text + chain_events(3))
    s.write_text(scenario_text)
    traces, checked = [], []

    def kept_run(model, scenario):
        trace = simulate.run(model, scenario)
        traces.append(weakref.ref(trace))
        return trace

    def checked_conforms(*args, **kwargs):
        assert traces[-1]() is None, "the trace is still alive"
        checked.append(traces[-1])
        return simulate.conforms(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "run", kept_run)
    monkeypatch.setattr(cli_mod, "conforms", checked_conforms)
    for flag in ([], ["--trace"], ["--transitive"]):
        assert cli_mod.main(["simulate", str(f), str(s), *flag]) == 3
    assert len(traces) == len(checked) == 3
    assert capsys.readouterr().err.count("thimac: e3 -> e2 is not an allowed succession\n") == 9


def test_simulate_trace_into_a_closed_pipe_exits_quietly(tmp_path):
    f, s = _one_stage_run(tmp_path, 8_000)  # about 190 KB, past a 64 KiB pipe buffer
    argv = [sys.executable, "-X", "dev", "-W", "error", "-m", "thimac"]
    argv += ["simulate", str(f), str(s), "--trace"]
    env = {**os.environ, "PYTHONPATH": str(Path(thimac.__file__).resolve().parent.parent)}
    pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    with subprocess.Popen(argv, env=env, **pipes) as child:
        assert child.stdout.readline() == b"0 t0 a.create create\n"
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 0
    assert err == b""


def test_simulate_warns_about_uncovered_stages(cli):
    r = cli("simulate", TAKE, "corpus/scenarios/take.scn")
    assert r.returncode == 0
    assert "warning: no declared event covers a.create" in r.stderr
    assert r.stdout.splitlines() == [
        "take_thing",
        "process_thing",
        "put_thing",
    ]


def test_simulate_pins_the_signal_scenario(cli):
    """The merged projection reads stages, not ticks, so it cannot tell
    ``signal_low`` (1..4) from ``signal_high`` (4..8): both hold only
    ``signal.process``.  The run's two entries project to ``signal_rises``
    alone, which conforms to ``wave``."""
    args = ("simulate", "corpus/signal.tm", "corpus/scenarios/signal.scn")
    r = cli(*args)
    assert (r.returncode, r.stdout, r.stderr) == (0, "signal_rises\n", "conforms to wave\n")
    r = cli(*args, "--trace")
    assert r.returncode == 0
    assert r.stdout == "0 s signal.create create\n1 s signal.process process\n"


def test_simulate_pins_the_query_related_scenario(cli):
    """The paper's third library transaction runs by the engine's rules, but
    ``related_books-1`` and ``related_authors-1`` walk their machines over
    the same ticks, and the merged projection reads their events in turn:
    13 events, 9 of them after a predecessor no edge allows, exit 3."""
    r = cli("simulate", "corpus/library.tm", "corpus/scenarios/query_related.scn")
    assert r.returncode == 3
    assert r.stdout.splitlines() == [
        "query_books", "match_query", "process_match",
        *["related_books_out", "related_authors_out"] * 5,
    ]
    turns = ["related_books_out -> related_authors_out",
             "related_authors_out -> related_books_out"]
    assert r.stderr.splitlines() == [
        f"thimac: {turns[k % 2]} is not an allowed succession" for k in range(9)
    ]


def test_simulate_bad_scenario_exits_two(cli, tmp_path):
    s = tmp_path / "bad.scn"
    s.write_text("warp 1\n")
    r = cli("simulate", LIB, str(s))
    assert r.returncode == 2
    assert "line 1: unknown directive" in r.stderr


def test_simulate_non_decimal_tick_exits_two(cli, tmp_path):
    s = tmp_path / "bad.scn"
    s.write_text("inject ² librarian.request x\n", encoding="utf-8")
    r = cli("simulate", LIB, str(s))
    assert r.returncode == 2
    assert "line 1: bad tick" in r.stderr


def test_simulate_stuck_run_exits_one(cli, tmp_path):
    s = tmp_path / "stuck.scn"
    s.write_text(
        "inject 0 librarian.request add-book\n"
        "choose system.booklist.transfer 0 2\n"
    )
    r = cli("simulate", LIB, str(s))
    assert r.returncode == 1
    assert "does not leave that stage" in r.stderr


def test_simulate_entry_budget_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(simulate, "ENTRY_BUDGET", 1000)
    f = tmp_path / "multiplying.tm"
    f.write_text(
        "thimac a { create; process; }\n"
        "flow a.create -> a.process;\n"
        "trigger a.process => a.create;\n"
        "trigger a.process => a.create;\n"
    )
    s = tmp_path / "one.scn"
    s.write_text("inject 0 a p0\n")
    assert cli_mod.main(["simulate", str(f), str(s), "--trace"]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1022
    assert err.splitlines()[-1] == "thimac: run hit the entry budget 1000"


def test_simulate_tick_cap_exits_one_without_a_verdict(cli, tmp_path):
    f = tmp_path / "ping_pong.tm"
    f.write_text(
        "thimac x { create; process; }\n"
        "thimac y { create; process; }\n"
        "flow x.create -> x.process;\n"
        "flow y.create -> y.process;\n"
        "trigger x.process => y.create;\n"
        "trigger y.process => x.create;\n"
        "event ping { region [x.create, x.process] }\n"
        "event pong { region [y.create, y.process] }\n"
        "behavior chatter { ping -> pong; pong -> ping; }\n"
    )
    s = tmp_path / "chatter.scn"
    s.write_text("inject 0 x first\nmax 7\n")
    r = cli("simulate", str(f), str(s), "--trace")
    assert r.returncode == 1
    assert r.stdout.splitlines()[0] == "0 first x.create create"
    assert r.stdout.splitlines()[-1] == "6 y-2 y.create create"
    assert r.stderr == "thimac: run hit the tick cap 7\n"
    r = cli("simulate", str(f), str(s))
    assert r.returncode == 1
    assert r.stdout.split() == ["ping", "pong", "ping", "pong"]
    assert r.stderr == "thimac: run hit the tick cap 7\n"


def test_simulate_unknown_behavior_exits_four_before_any_output(cli):
    r = cli("simulate", LIB, "corpus/scenarios/add_new_book.scn", "--behavior", "nope")
    assert r.returncode == 4
    assert r.stdout == ""
    assert r.stderr == "thimac: no behavior named 'nope'\n"


def test_simulate_nonconforming_trace_exits_three(cli, tmp_path):
    f = tmp_path / "back.tm"
    f.write_text(
        "thimac x { create; process; }\n"
        "flow x.create -> x.process;\n"
        "event e_start { region [x.create] }\n"
        "event e_end { region [x.process] }\n"
        "behavior back { e_end -> e_start; }\n"
    )
    s = tmp_path / "go.scn"
    s.write_text("inject 0 x t\n")
    r = cli("simulate", str(f), str(s))
    assert r.returncode == 3
    assert "e_start -> e_end is not an allowed succession" in r.stderr


def test_simulate_transitive_bridges_a_skipped_event(cli, tmp_path):
    f = tmp_path / "chain.tm"
    f.write_text(
        "thimac x { create; process; release; }\n"
        "thimac y { transfer; }\n"
        "flow x.create -> x.process;\n"
        "flow x.process -> x.release;\n"
        "event e1 { region [x.create] }\n"
        "event e2 { region [y.transfer] }\n"
        "event e3 { region [x.release] }\n"
        "behavior chain { e1 -> e2; e2 -> e3; }\n"
    )
    s = tmp_path / "go.scn"
    s.write_text("inject 0 x t\n")
    strict = cli("simulate", str(f), str(s))
    assert strict.returncode == 3
    loose = cli("simulate", str(f), str(s), "--transitive")
    assert loose.returncode == 0
    assert "conforms to chain" in loose.stderr
    assert "no declared event covers x.process" in loose.stderr


# ---------------------------------------------------------------------------
# export


def test_export_dot_matches_golden(cli, golden_dir):
    r = cli("export", TAKE)
    assert r.returncode == 0
    assert r.stdout == (golden_dir / "take.dot").read_text()


def test_export_highlight_fills_region(cli):
    r = cli("export", TAKE, "--highlight", "process_thing")
    assert r.returncode == 0
    assert r.stdout.count('fillcolor="gold"') == 1
    plain = cli("export", TAKE)
    assert "gold" not in plain.stdout


def test_export_highlight_empty_name_exits_four(cli):
    r = cli("export", TAKE, "--highlight", "")
    assert r.returncode == 4
    assert r.stdout == ""
    assert "no event named ''" in r.stderr


def test_export_canonical_round_trip(cli, library):
    r = cli("export", "--canonical", LIB)
    assert r.returncode == 0
    assert r.stdout == serialize(
        library.model, library.events, library.behaviors
    )


# ---------------------------------------------------------------------------
# usage


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "toast.tm"],
        ["events", "toast.tm"],
        ["behavior", "toast.tm"],
        ["simulate", "toast.tm", "toast.scn"],
        ["simulate", "toast.tm", "toast.scn", "--trace"],
        ["export", "toast.tm", "--canonical"],
    ],
    ids=" ".join,
)
def test_a_leading_byte_order_mark_is_ignored(argv, tmp_path, monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    outputs = []
    for bom in ("", "\ufeff"):
        copies = tmp_path / f"bom{len(bom)}"
        copies.mkdir()
        for src in (TOAST, "corpus/scenarios/toast.scn"):
            text = (root / src).read_text(encoding="utf-8")
            (copies / Path(src).name).write_text(bom + text, encoding="utf-8")
        monkeypatch.chdir(copies)
        outputs.append((cli_mod.main(argv), *capsys.readouterr()))
    assert outputs[1] == outputs[0]


def test_module_docstring_lists_only_real_options(capsys):
    lines = [line.split() for line in cli_mod.__doc__.splitlines()]
    commands = [words for words in lines if words[:1] == ["thimac"]]
    assert len(commands) == 5
    for words in commands:
        with pytest.raises(SystemExit):
            cli_mod.main([words[1], "--help"])
        usage = capsys.readouterr().out
        for flag in re.findall(r"--[a-z]+", " ".join(words)):
            assert flag in usage, (words[1], flag)
