import hashlib
import importlib.resources
import subprocess
import sys
from fractions import Fraction

import pytest

from sentprob.estimator import Estimate, EstimateMode
from sentprob.harness import (
    REQUIRED_PROPERTIES,
    ConfigError,
    TrendAssertion,
    evaluate_assertion,
    load_config,
    parse_config,
    run_suite,
)

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
            Estimate(Fraction(v), EstimateMode.MONTE_CARLO, 10, 0.1, 1) for v in vals
        ]
    return out


def check(kind, seq_ids, target, tol, window, trajectories):
    a = TrendAssertion("t", kind, tuple(seq_ids), target, tol, window)
    return evaluate_assertion(a, trajectories)


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


def test_crosscheck_config_errors():
    with pytest.raises(ConfigError, match="capped at 4"):
        parse_config(MINIMAL + "x = approaches atom_chain 1 0.1 1\n[crosscheck]\nbattery = a0\natom_window = 5\n")
    with pytest.raises(ConfigError, match="expected sentence"):
        parse_config(MINIMAL + "x = approaches atom_chain 1 0.1 1\n[crosscheck]\nbattery = a0 ; (a0 &\n")


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


def test_demo_suite_artifacts_are_pinned(tmp_path):
    cfg = parse_config(demo_text())
    result = run_suite(cfg, out_dir=str(tmp_path))
    assert result.passed
    digests = {}
    for name in ("trajectories.csv", "assert_bottom_vanishes.svg"):
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests["trajectories.csv"] == (
        "a61f7631ff6241551b258a42ecd24237354addd07fa224dc7e8f824d65d9dfb7"
    )
    assert digests["assert_bottom_vanishes.svg"] == (
        "3c2cbc4b61736f82e0a54637158414814a821c31aef0482d2fb399a639a87d7b"
    )


def test_suite_artifact_shapes(tmp_path):
    cfg = parse_config(demo_text())
    result = run_suite(cfg, out_dir=str(tmp_path))
    csv = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert csv[0] == "seq_id,n,value,ci,samples,seed,mode"
    assert len(csv) == 1 + len(cfg.sequence_ids) * len(cfg.schedule)
    import json

    rows = [json.loads(line) for line in (tmp_path / "trajectories.jsonl").read_text().splitlines()]
    assert len(rows) == len(cfg.sequence_ids) * len(cfg.schedule)
    assert set(rows[0]) == {"seq_id", "n", "value", "ci", "samples", "seed", "mode"}
    report = (tmp_path / "report.txt").read_text()
    for a in cfg.assertions:
        assert f" {a.name}: " in report
    assert "gate cache: entries=" in report
    for a in cfg.assertions:
        assert (tmp_path / f"assert_{a.name}.svg").exists()


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sentprob", *args],
        capture_output=True,
        text=True,
    )


def test_cli_usage_errors():
    assert run_cli().returncode == 2
    assert run_cli("run", "/nonexistent.ini").returncode == 2


def test_cli_list_sequences():
    proc = run_cli("list-sequences")
    assert proc.returncode == 0
    assert "atom_chain" in proc.stdout
    assert "mutex_family" in proc.stdout


def test_cli_demo_and_failing_run(tmp_path):
    ok = run_cli("demo", "--out", str(tmp_path / "demo"))
    assert ok.returncode == 0
    assert "PASS" in ok.stdout
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
