import importlib.resources
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from sentprob import cli, harness
from sentprob.cli import _report_crosscheck
from sentprob.estimator import MAX_ATOM_WINDOW, Estimate, extension_probabilities
from sentprob.harness import (
    REQUIRED_PROPERTIES,
    ConfigError,
    CrosscheckResult,
    CrosscheckRow,
    TrendAssertion,
    load_config,
    parse_config,
    run_suite,
)
from sentprob.logic import Atom, parse_sentence

MINIMAL = """
[suite]
id = t
samples = 10
seed = 1

[stages]
count = 2

[sequences]
ids = atom_chain

[assert]
"""


def standard_text():
    return (importlib.resources.files("sentprob") / "configs" / "standard.ini").read_text()


def demo_text():
    return (importlib.resources.files("sentprob") / "configs" / "demo.ini").read_text()


def traj(*rows):
    out = {}
    for sid, vals in rows:
        out[sid] = [
            Estimate(Fraction(v), 10, 0.1, 1) for v in vals
        ]
    return out


def check(kind, seq_ids, target, tol, window, trajectories):
    a = TrendAssertion("t", kind, tuple(seq_ids), target, tol, window)
    # The outcome run_suite records for a on these trajectories.
    return harness._judge(a, harness._series(a, trajectories))


def test_standard_config_parses():
    cfg = parse_config(standard_text())
    assert cfg.suite_id == "standard"
    assert cfg.samples == 400
    assert cfg.seed == 20260817
    assert [s.n for s in cfg.schedule] == [1, 2, 3, 4, 5]
    assert "deep_split_merge" in cfg.sequence_ids
    assert len(cfg.sequence_ids) == 11
    assert len(cfg.assertions) == 11
    cc = cfg.crosscheck
    assert cc is not None
    assert (cc.rounds, cc.machine_budget, cc.atom_window, cc.samples) == (64, 64, 3, 600)
    assert len(cc.battery) == 6


def test_standard_suite_covers_required_properties():
    cfg = parse_config(standard_text())
    covered = set().union(*(a.covers for a in cfg.assertions))
    assert REQUIRED_PROPERTIES <= covered


def test_minimal_config_defaults():
    cfg = parse_config("[suite]\nid = x\n")
    assert cfg.samples == 200
    assert cfg.seed == 1
    assert cfg.sequence_ids == ()
    assert cfg.assertions == ()
    assert cfg.crosscheck is None
    assert [s.n for s in cfg.schedule] == [1, 2, 3, 4, 5]


def test_config_errors():
    def bad(line):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + line + "\n")

    bad("x = frobnicate atom_chain 1 0.1 1")
    bad("x = approaches atom_chain 1 0.1")
    bad("x = approaches atom_chain 1 1.5 1")
    bad("x = approaches atom_chain 1 0 1")
    bad("x = approaches atom_chain 1 0.1 5")
    bad("x = approaches missing_seq 1 0.1 1")
    bad("x = diff atom_chain 0.1 1")
    bad("x = sum 1 0.1 1")
    bad("x = nonincreasing atom_chain")
    bad("x = stabilizes atom_chain 0.1")


def test_assertion_arity_messages():
    # The parser derives each message from the kind's argument layout.
    cases = {
        "frobnicate atom_chain 1 0.1 1": "unknown kind 'frobnicate'",
        "approaches atom_chain 1 0.1": "expected <seq> <target> <tol> <window>",
        "approaches atom_chain 1 0.1 1 1": "expected <seq> <target> <tol> <window>",
        "sum 1 0.1 1": "expected <target> <tol> <window> <seq...>",
        "diff atom_chain 0.1 1": "expected <seq_a> <seq_b> <tol> <window>",
        "diff atom_chain atom_chain atom_chain 0.1 1": "expected <seq_a> <seq_b> <tol> <window>",
        "nonincreasing atom_chain": "expected <seq> <window>",
        "nondecreasing atom_chain 1 1": "expected <seq> <window>",
        "stabilizes atom_chain 0.1": "expected <seq> <tol> <window>",
    }
    for line, message in cases.items():
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL + f"x = {line}\n")
        assert str(info.value) == f"assertion x: {message}", line
    (a,) = parse_config(MINIMAL + "x = sum 1 0.1 2 atom_chain split_next split_rest\n").assertions
    assert (a.seq_ids, a.target, a.tol, a.window) == (
        ("atom_chain", "split_next", "split_rest"), Fraction(1), Fraction(1, 10), 2
    )


def test_assertion_names_stay_inside_the_output_directory(tmp_path):
    # The name becomes the chart's file name, assert_<name>.svg, so only
    # letters, digits, '_' and '-' are accepted.
    line = " = approaches atom_chain 1 0.1 1\n"
    assert parse_config(MINIMAL + "ok-name_2" + line).assertions[0].name == "ok-name_2"
    for name in ("../../../escaped2", "a/b", "a.b", "sp ace"):
        with pytest.raises(ConfigError, match=r"\[assert\] key " + re.escape(repr(name))):
            parse_config(MINIMAL + name + line)
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    path = work / "escape.ini"
    path.write_text(MINIMAL + "../../../escaped" + line)
    proc = run_cli("run", str(path), "--out", str(work / "out"))
    assert proc.returncode == 2
    assert "'../../../escaped'" in proc.stderr and "Traceback" not in proc.stderr
    assert not (work / "out").exists()
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == ["escape.ini"]


def test_doc_grammar_lists_every_kind():
    # The grammar in the module docstring names exactly the kinds of the
    # table, each with the argument layout its parser reads.
    doc = harness.__doc__.split("Assertion grammar", 1)[1].split("\n\n")[1]
    documented = {}
    for line in doc.splitlines():
        usage = line.strip().split("  ")[0]
        if not usage.startswith("..."):
            kind, _, layout = usage.partition(" ")
            documented[kind] = layout
    assert documented == {
        kind: " ".join(f"<{slot}>" for slot in row.layout) for kind, row in harness._KINDS.items()
    }


def test_unknown_stage_keys_are_rejected(tmp_path):
    # probe_depth is a removed key, proof_facter a misspelt one: either would
    # otherwise be ignored and run a schedule the config does not describe.
    for line in ("probe_depth = 1", "proof_facter = 16"):
        text = MINIMAL.replace("count = 2\n", f"count = 2\n{line}\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(text)
        path = tmp_path / f"{key}.ini"
        path.write_text(text)
        proc = run_cli("run", str(path), "--out", str(tmp_path / key))
        assert proc.returncode == 2
        assert key in proc.stderr


def test_stage_cap_above_growth_ceiling_is_rejected(tmp_path):
    # Stage sizes stop growing at 512, so a larger cap would be ignored.
    text = MINIMAL.replace("count = 2\n", "count = 8\ncap = 1024\n")
    with pytest.raises(ConfigError, match=r"\[stages\] cap 1024 exceeds the growth ceiling 512"):
        parse_config(text)
    path = tmp_path / "cap.ini"
    path.write_text(text)
    proc = run_cli("run", str(path), "--out", str(tmp_path / "cap"))
    assert proc.returncode == 2
    assert "growth ceiling" in proc.stderr
    cfg = parse_config(text.replace("cap = 1024", "cap = 512"))
    assert [s.machines for s in cfg.schedule] == [24, 48, 96, 192, 384, 512, 512, 512]


def test_unknown_suite_and_crosscheck_keys_are_rejected(tmp_path):
    # A misspelt key would otherwise be dropped and its default would run.
    crosscheck = "x = approaches atom_chain 1 0.1 1\n[crosscheck]\nbattery = a0\n"
    cases = (
        ("suite", "sample", MINIMAL.replace("samples = 10\n", "samples = 10\nsample = 10\n")),
        ("crosscheck", "atom_windw", MINIMAL + crosscheck + "atom_windw = 4\n"),
    )
    for section, key, text in cases:
        with pytest.raises(ConfigError, match=rf"\[{section}\] unknown key '{key}'"):
            parse_config(text)
        path = tmp_path / f"{key}.ini"
        path.write_text(text)
        proc = run_cli("run", str(path), "--out", str(tmp_path / key))
        assert proc.returncode == 2
        assert key in proc.stderr


def test_unknown_sections_and_sequence_keys_are_rejected(tmp_path):
    # A misspelt section or [sequences] key would otherwise be dropped: the
    # config would run no assertion on no family and pass with exit 0.
    body = "[suite]\nid = t\nsamples = 10\n\n[stages]\ncount = 2\n\n"
    cases = (
        ("asert", r"unknown section 'asert'", body + "[asert]\nx = approaches atom_chain 1 0.1 1\n"),
        ("idz", r"\[sequences\] unknown key 'idz'", body + "[sequences]\nidz = atom_chain\n"),
    )
    for name, message, text in cases:
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        proc = run_cli("run", str(path), "--out", str(tmp_path / name))
        assert proc.returncode == 2
        assert name in proc.stderr
    both = body + "[asert]\nx = approaches atom_chain 1 0.1 1\n[sequences]\nidz = atom_chain\n"
    with pytest.raises(ConfigError):
        parse_config(both)
    with pytest.raises(ConfigError, match=r"<config>: unknown section 'DEFAULTS'"):
        parse_config(MINIMAL + "[DEFAULTS]\nseed = 2\n")


def test_repeated_sequence_id_is_rejected(tmp_path):
    # A repeated id would append each stage's estimate twice to its
    # trajectory, so stage 2 would read stage 1's value and a trend
    # assertion would judge the wrong series.
    text = MINIMAL.replace("ids = atom_chain", "ids = atom_chain atom_chain")
    with pytest.raises(ConfigError, match=r"\[sequences\] ids: 'atom_chain' is listed twice"):
        parse_config(text)
    path = tmp_path / "twice.ini"
    path.write_text(text + "x = nonincreasing atom_chain 2\n")
    proc = run_cli("run", str(path), "--out", str(tmp_path / "twice"))
    assert proc.returncode == 2
    assert "atom_chain" in proc.stderr
    # an assertion naming a listed id is no repetition
    parse_config(MINIMAL + "x = nonincreasing atom_chain 2\n")
    # Nor may one assertion name an id twice: a diff of a sequence with
    # itself can never fail, and a sum would count one trajectory twice.
    listed = MINIMAL.replace("ids = atom_chain", "ids = atom_chain neg_atom_chain")
    for line in (
        "y = diff atom_chain atom_chain 0.1 2",
        "y = sum 1 0.1 2 atom_chain atom_chain",
        "y = sum 1 0.1 2 atom_chain neg_atom_chain atom_chain",
    ):
        with pytest.raises(ConfigError, match=r"assertion y: sequence 'atom_chain' is named twice"):
            parse_config(listed + line + "\n")
    parse_config(listed + "y = sum 1 0.1 2 atom_chain neg_atom_chain\n")


def test_percent_in_values_is_literal(tmp_path):
    # Values are read without interpolation, so a '%' is plain text and a
    # bad one is an ordinary value error: exit 2, not a traceback.
    cfg = parse_config(MINIMAL.replace("id = t", "id = run%1\nout = out%(x)s"))
    assert (cfg.suite_id, cfg.out_dir) == ("run%1", "out%(x)s")
    with pytest.raises(ConfigError, match=r"\[suite\] samples: not an integer: '10%'"):
        parse_config(MINIMAL.replace("samples = 10", "samples = 10%"))
    path = tmp_path / "percent.ini"
    path.write_text(MINIMAL.replace("id = t", "id = run%1"))
    proc = run_cli("run", str(path), "--out", str(tmp_path / "ok"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "ok" / "report.txt").read_text().startswith("suite run%1:")
    path.write_text(MINIMAL.replace("samples = 10", "samples = 10%"))
    proc = run_cli("run", str(path), "--out", str(tmp_path / "bad"))
    assert proc.returncode == 2
    assert "not an integer: '10%'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_crosscheck_rows_print_the_comparison_that_holds(capsys):
    # The CLI prints each row's line, the one crosscheck_report.txt records.
    def row(label, diff, bound):
        membership = Estimate(Fraction(1, 2), 10, 0.1, 1)
        extension = Estimate(Fraction(1, 2), 10, 0.1, 1, undecided=3)
        return CrosscheckRow(label, membership, extension, diff, bound, diff <= bound)

    rows = (row("close", 0.05, 0.25), row("tie", 0.25, 0.25), row("far", 0.5, 0.25))
    _report_crosscheck(CrosscheckResult(False, rows, ()))
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "PASS close: membership 0.5000 vs extension 0.5000 (diff 0.0500, bound 0.2500, undecided 3)",
        "PASS tie: membership 0.5000 vs extension 0.5000 (diff 0.2500, bound 0.2500, undecided 3)",
        "FAIL far: membership 0.5000 vs extension 0.5000 (diff 0.5000, bound 0.2500, undecided 3)",
    ]


def test_crosscheck_config_errors():
    with pytest.raises(ConfigError, match="capped at 4"):
        parse_config(MINIMAL + "x = approaches atom_chain 1 0.1 1\n[crosscheck]\nbattery = a0\natom_window = 5\n")
    with pytest.raises(ConfigError, match="expected sentence"):
        parse_config(MINIMAL + "x = approaches atom_chain 1 0.1 1\n[crosscheck]\nbattery = a0 ; (a0 &\n")
    # A run of negations is read in a loop, however long.
    deep = "!" * 5000 + "a1"
    cfg = parse_config(MINIMAL + f"x = approaches atom_chain 1 0.1 1\n[crosscheck]\nbattery = a0 ; {deep}\n")
    assert cfg.crosscheck.battery[1] == parse_sentence(deep)


def wide_disjunction(count):
    """((a30 | a31) | ...) over count atoms, all outside any atom window."""
    text = "a30"
    for i in range(31, 30 + count):
        text = f"({text} | a{i})"
    return text


def test_too_wide_battery_sentence_is_a_config_error(tmp_path):
    # The extension sampler tabulates a battery sentence over the window and
    # its atoms outside it, 24 atoms at most: at window 3 a sentence may
    # have 21 outside atoms. A wider one is refused when the config is read,
    # before any membership work, not when the sampler reaches it.
    head = MINIMAL + "x = approaches atom_chain 1 0.1 1\n[crosscheck]\nsamples = 10\n"
    fits, wide = wide_disjunction(21), wide_disjunction(22)
    assert parse_config(f"{head}battery = a0 ; {fits}\n").crosscheck.battery[1] == parse_sentence(fits)
    message = r"\[crosscheck\] battery: sentence atoms exceed the table limit"
    with pytest.raises(ConfigError, match=message + r".*atom_window 3"):
        parse_config(f"{head}battery = a0 ; {wide}\n")
    with pytest.raises(ConfigError, match=message + r".*atom_window 4"):
        parse_config(f"{head}atom_window = 4\nbattery = a0 ; {fits}\n")
    path = tmp_path / "wide.ini"
    path.write_text(f"{head}battery = a0 ; {fits}\n")
    proc = run_cli("crosscheck", str(path), "--out", str(tmp_path / "fits"))
    assert proc.returncode in (0, 1), proc.stderr
    assert (tmp_path / "fits" / "crosscheck.csv").exists()
    path.write_text(f"{head}battery = a0 ; {wide}\n")
    proc = run_cli("crosscheck", str(path), "--out", str(tmp_path / "wide"))
    assert proc.returncode == 2
    assert "table limit" in proc.stderr and wide in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "wide").exists()


def test_atom_window_limit_is_shared():
    # One limit for configs and the sampler: the widest window passes both,
    # one wider fails both.
    assert MAX_ATOM_WINDOW == 4
    head = MINIMAL + "x = approaches atom_chain 1 0.1 1\n[crosscheck]\nbattery = a0\natom_window = "
    assert parse_config(head + "4\n").crosscheck.atom_window == 4
    (e,) = extension_probabilities([Atom(0)], 3, 2, 5, atom_window=4)
    assert e.samples == 5
    with pytest.raises(ConfigError, match="capped at 4"):
        parse_config(head + "5\n")
    with pytest.raises(ValueError, match=r"atom window must be in 1\.\.4"):
        extension_probabilities([Atom(0)], 3, 2, 5, atom_window=5)


def test_load_config_wraps_io_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.ini")
    p = tmp_path / "ok.ini"
    p.write_text(MINIMAL + "x = approaches atom_chain 1 0.1 1\n")
    assert load_config(p).suite_id == "t"


def test_covers_tags_parse():
    cfg = parse_config(MINIMAL + "x = approaches atom_chain 1 0.1 1 :: alpha, beta\n")
    assert cfg.assertions[0].covers == ("alpha", "beta")


def test_evaluate_approaches():
    t = traj(("s", ["1/2", "3/4", "9/10"]))
    assert check("approaches", ["s"], Fraction(1), Fraction(1, 5), 1, t).passed
    assert not check("approaches", ["s"], Fraction(1), Fraction(1, 20), 1, t).passed
    # window averages the tail
    assert check("approaches", ["s"], Fraction(1), Fraction(18, 100), 2, t).passed


def test_evaluate_sum():
    t = traj(("a", ["1/4", "1/2"]), ("b", ["1/4", "1/2"]))
    assert check("sum", ["a", "b"], Fraction(1), Fraction(1, 100), 1, t).passed
    assert not check("sum", ["a", "b"], Fraction(1), Fraction(1, 100), 2, t).passed


def test_evaluate_diff():
    t = traj(("a", ["1/2", "1/2"]), ("b", ["1/4", "9/16"]))
    assert check("diff", ["a", "b"], None, Fraction(1, 10), 1, t).passed
    assert not check("diff", ["a", "b"], None, Fraction(1, 10), 2, t).passed


def test_evaluate_monotone():
    rising = traj(("s", ["1/4", "1/4", "1/2"]))
    assert check("nondecreasing", ["s"], None, None, 3, rising).passed
    assert not check("nonincreasing", ["s"], None, None, 3, rising).passed
    # ties pass both directions
    flat = traj(("s", ["1/4", "1/4"]))
    assert check("nondecreasing", ["s"], None, None, 2, flat).passed
    assert check("nonincreasing", ["s"], None, None, 2, flat).passed
    # a single point is trivially monotone
    assert check("nonincreasing", ["s"], None, None, 1, rising).passed


def test_evaluate_stabilizes():
    t = traj(("s", ["1/2", "5/8", "9/16"]))
    assert check("stabilizes", ["s"], None, Fraction(1, 8), 3, t).passed
    assert not check("stabilizes", ["s"], None, Fraction(1, 16), 3, t).passed


def test_chart_draws_the_series_the_verdict_judged(tmp_path, monkeypatch):
    # sum and diff charts add the per-stage series their verdict judges:
    # column sums and absolute differences, one value per stage.
    a = ["1/4", "1/2", "3/4"]
    b = ["1/2", "3/8", "1/8"]
    monkeypatch.setattr(
        harness,
        "sequence_trajectories",
        lambda *args: traj(("atom_chain", a), ("neg_atom_chain", b)),
    )
    charts = {}

    def render(title, series):
        charts[title] = series
        return "<svg/>\n"

    monkeypatch.setattr(harness, "render_chart", render)
    judged = {}
    for kind in ("sum", "diff"):
        row = harness._KINDS[kind]

        def judge(tail, assertion, row=row):
            judged[assertion.name] = list(tail)
            return row.judge(tail, assertion)

        monkeypatch.setitem(harness._KINDS, kind, row._replace(judge=judge))
    text = MINIMAL.replace("count = 2", "count = 3") + (
        "total = sum 1 0.5 2 atom_chain neg_atom_chain\n"
        "gap = diff atom_chain neg_atom_chain 0.5 2\n"
    )
    result = run_suite(parse_config(text), out_dir=str(tmp_path))
    expected = {
        ("total (sum)", "sum"): [Fraction(x) + Fraction(y) for x, y in zip(a, b)],
        ("gap (diff)", "|diff|"): [abs(Fraction(x) - Fraction(y)) for x, y in zip(a, b)],
    }
    for (title, label), values in expected.items():
        drawn = charts[title][-1]
        assert drawn.label == label
        assert [pt.y for pt in drawn.points] == [float(v) for v in values]
        assert [pt.x for pt in drawn.points] == [1.0, 2.0, 3.0]
        assert judged[title.split()[0]] == values[-2:]
    assert [o.detail for o in result.outcomes] == [
        "tail mean 0.8750, target 1.0000, tol 0.5000",
        "tail mean |diff| 0.3750, tol 0.5000",
    ]


def assert_matches_committed(written, committed_dir):
    """Every written artifact is byte-identical to the committed file of the
    same name, and every committed file was written."""
    assert sorted(Path(p).name for p in written) == sorted(p.name for p in committed_dir.iterdir())
    for path in map(Path, written):
        assert path.read_bytes() == (committed_dir / path.name).read_bytes(), path.name


def test_demo_suite_artifacts_are_pinned(tmp_path):
    cfg = parse_config(demo_text())
    result = run_suite(cfg, out_dir=str(tmp_path))
    assert result.passed
    assert_matches_committed(result.artifacts, ROOT / "demo_run")


def test_suite_artifact_shapes(tmp_path):
    cfg = parse_config(demo_text())
    result = run_suite(cfg, out_dir=str(tmp_path))
    csv = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert csv[0] == "seq_id,n,value,ci,samples,seed,mode"
    assert len(csv) == 1 + len(cfg.sequence_ids) * len(cfg.schedule)
    rows = [json.loads(line) for line in (tmp_path / "trajectories.jsonl").read_text().splitlines()]
    assert len(rows) == len(cfg.sequence_ids) * len(cfg.schedule)
    assert set(rows[0]) == {"seq_id", "n", "value", "ci", "samples", "seed", "mode"}
    report = (tmp_path / "report.txt").read_text()
    for a in cfg.assertions:
        assert f" {a.name}: " in report
    assert "gate cache: entries=" in report
    for a in cfg.assertions:
        assert (tmp_path / f"assert_{a.name}.svg").exists()


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_python(*args):
    # The child needs src on its path whether or not the test process got
    # it from PYTHONPATH or from pytest's own pythonpath setting.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
    )


def run_cli(*args):
    return run_python("-m", "sentprob", *args)


def test_benchmark_tracer_wiring_installs():
    # A traced benchmark run wraps pipeline bindings by name
    # (prover.render_sentence, consistency.refute_bounded, ClaimSet.union,
    # estimator.run_prefix, ...); deleting or renaming one must fail here.
    script = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "from tracer import Tracer, install\n"
        "install(Tracer())\n"
    )
    proc = run_python("-c", script, str(ROOT / "perfbench"), str(SRC))
    assert proc.returncode == 0, proc.stderr


def test_cli_usage_errors(tmp_path):
    assert run_cli().returncode == 2
    assert run_cli("run", "/nonexistent.ini").returncode == 2
    # Parentheses nested past the interpreter's recursion limit are a config
    # error, not a traceback.
    nested = "(" * 2000 + "a0" + " & a1)" * 2000
    path = tmp_path / "nested.ini"
    path.write_text(MINIMAL + f"x = approaches atom_chain 1 0.1 1\n[crosscheck]\nbattery = a0 ; {nested}\n")
    proc = run_cli("run", str(path), "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "config error" in proc.stderr and "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr
    # The message names the position and quotes only a prefix of the
    # 14,000-character sentence.
    assert "at position" in proc.stderr and "characters)" in proc.stderr
    assert max(map(len, proc.stderr.splitlines())) < 320


def test_import_and_demo_leave_the_recursion_limit_alone(tmp_path):
    script = (
        "import sys\n"
        "before = sys.getrecursionlimit()\n"
        "from sentprob import cli\n"
        "code = cli.main(['demo', '--out', sys.argv[1]])\n"
        "print(before, sys.getrecursionlimit(), code)\n"
    )
    proc = run_python("-c", script, str(tmp_path / "demo"))
    assert proc.returncode == 0, proc.stderr
    before, after, code = proc.stdout.split()[-3:]
    assert after == before and code == "0"


def test_cli_list_sequences():
    proc = run_cli("list-sequences")
    assert proc.returncode == 0
    assert "atom_chain" in proc.stdout
    assert "mutex_family" in proc.stdout


def test_cli_demo_and_failing_run(tmp_path):
    ok = run_cli("demo", "--out", str(tmp_path / "demo"))
    assert ok.returncode == 0
    assert "PASS" in ok.stdout
    # stdout and report.txt carry the same outcome lines.
    report = (tmp_path / "demo" / "report.txt").read_text().splitlines()
    printed = [line for line in ok.stdout.splitlines() if not line.startswith("wrote ")]
    assert printed == report[1:-1] and len(printed) == 4
    failing = tmp_path / "failing.ini"
    failing.write_text(
        "[suite]\nid = failing\nsamples = 16\nseed = 3\n"
        f"out = {tmp_path / 'run'}\n\n"
        "[stages]\ncount = 2\n\n"
        "[sequences]\nids = constant_bottom\n\n"
        "[assert]\nimpossible = approaches constant_bottom 1 0.05 1\n"
    )
    proc = run_cli("run", str(failing))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    report = (tmp_path / "run" / "report.txt").read_text().splitlines()
    assert proc.stdout.splitlines()[0] == report[1] == (
        "FAIL impossible: tail mean 0.0000, target 1.0000, tol 0.0500"
    )


def test_unusable_output_directory_fails_before_any_work(tmp_path, monkeypatch, capsys):
    # An --out under a regular file cannot be created. Every command must
    # say so and exit 2 before it accumulates anything.
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    bad = blocker / "sub"
    calls = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "run_crosscheck", lambda *args: calls.append(args))
    standard = str(SRC / "sentprob" / "configs" / "standard.ini")
    for argv in (["demo"], ["run", standard], ["crosscheck", standard]):
        assert cli.main([*argv, "--out", str(bad)]) == 2, argv
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err, argv
    assert calls == []
    proc = run_cli("demo", "--out", str(bad))
    assert proc.returncode == 2
    assert str(bad) in proc.stderr and "Traceback" not in proc.stderr


def traced_cli(tmp_path, *argv):
    """Run cli.main(argv) in a child under perfbench/tracer.py's wiring.
    Returns the finished process and the tracer's summary. -B keeps the
    child from writing bytecode into perfbench/."""
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracer import Tracer, install\n"
        "tracer = Tracer()\n"
        "install(tracer)\n"
        "tracer.begin_run('traced')\n"
        "from sentprob import cli\n"
        "code = cli.main(sys.argv[2:])\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    json.dump(tracer.summary(), fh)\n"
        "sys.exit(code)\n"
    )
    summary_path = tmp_path / "summary.json"
    proc = run_python("-B", "-c", script, str(summary_path), *argv)
    assert summary_path.exists(), proc.stderr
    return proc, json.loads(summary_path.read_text())


def test_benchmark_tracer_wraps_the_demo_run(tmp_path):
    # perfbench/tracer.py patches sentprob functions by name and reads some
    # arguments by position: the gate's cache (consistent_enough, args[2]),
    # refute_bounded's budget (args[1]) and accumulate_claims' stage. A
    # traced demo run must still pass, write the committed artifacts and
    # record every one of those.
    out = tmp_path / "demo"
    proc, summary = traced_cli(tmp_path, "demo", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert_matches_committed(sorted(out.iterdir()), ROOT / "demo_run")
    spans, counters, samples = summary["spans"], summary["counters"], summary["samples"]
    for name in ("consistency.consistent_enough", "estimator.accumulate_claims"):
        assert spans[name][0] > 0, name
    assert counters["consistency.cache_hits"] + counters["consistency.cache_misses"] > 0
    # The closure decides every demo miss that the summary leaves, so the
    # wrapped plain loop is never called and samples nothing.
    assert spans["prover.refute_bounded"][0] == 0 and not samples.get("prover.budget_use")
    assert set(samples["estimator.accumulate_stage"]) == {1, 2}


def test_benchmark_tracer_sees_every_crosscheck_accumulation(tmp_path):
    # The crosscheck's recount merges each sample through accumulate_claims,
    # the binding the tracer wraps, so a traced crosscheck records one
    # accumulation of the last stage per sample.
    standard = (SRC / "sentprob" / "configs" / "standard.ini").read_text()
    config = tmp_path / "standard.ini"
    config.write_text(standard.replace("samples = 400", "samples = 3"))
    proc, summary = traced_cli(tmp_path, "crosscheck", str(config), "--out", str(tmp_path / "x"))
    assert proc.returncode in (0, 1), proc.stderr
    assert summary["spans"]["estimator.membership_counts"][0] == 1
    assert summary["spans"]["estimator.accumulate_claims"][0] == 3
    assert summary["samples"]["estimator.accumulate_stage"] == [5, 5, 5]
