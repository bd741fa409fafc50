"""Config-driven experiment harness.

A suite config is an INI file. [suite] names the run and pins samples, seed
and output directory; [stages] builds the stage schedule from count, cap,
proof_floor and proof_factor, and rejects any other key; [sequences] lists
trajectory families; [assert] holds one trend assertion per line; an optional
[crosscheck] section configures the membership-vs-extension comparison.

Assertion grammar (value of each [assert] key, covers tags optional):

    approaches <seq> <target> <tol> <window>      tail mean within tol
    sum <target> <tol> <window> <seq> <seq...>    tail mean of per-stage sums
    diff <seq_a> <seq_b> <tol> <window>           tail mean of |a - b|
    nonincreasing <seq> <window>                  exact, ties allowed
    nondecreasing <seq> <window>                  exact, ties allowed
    stabilizes <seq> <tol> <window>               max - min over the window
    ... :: tag, tag                               property-coverage tags

Assertions are evaluated on exact rationals; windows count trajectory points
from the end. Artifacts (CSV, JSON-lines, one SVG per assertion, a text
report) are byte-deterministic given the same config and seed.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .bits import derive_seed
from .consistency import ConCache, ConParams
from .estimator import (
    GROWTH_CAP,
    Estimate,
    StageParams,
    default_growth,
    extension_probabilities,
    membership_counts,
    monte_carlo_estimate,
    sequence_trajectories,
)
from .logic import ParseError, Sentence, parse_sentence, render_sentence
from .sequences import sequence_by_id
from .svgplot import Series, SeriesPoint, render_chart

# Every tag in this set must be covered by the standard suite's assertions;
# the coverage test keeps the suite honest about what it exercises.
REQUIRED_PROPERTIES = frozenset(
    {
        "vanishing-contradiction",
        "trajectory-stabilization",
        "partition-additivity",
        "equivalence-agreement",
        "theorem-convergence",
        "k-partition-additivity",
        "exclusive-vanishing",
        "complement-additivity",
    }
)

_KINDS = {
    "approaches",
    "sum",
    "diff",
    "nonincreasing",
    "nondecreasing",
    "stabilizes",
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class TrendAssertion:
    name: str
    kind: str
    seq_ids: tuple[str, ...]
    target: Optional[Fraction]
    tol: Optional[Fraction]
    window: int
    covers: tuple[str, ...] = ()


@dataclass(frozen=True)
class CrosscheckSpec:
    battery: tuple[Sentence, ...]
    rounds: int
    machine_budget: int
    atom_window: int
    samples: int
    tol: Fraction


@dataclass(frozen=True)
class ExperimentConfig:
    suite_id: str
    samples: int
    seed: int
    out_dir: str
    schedule: tuple[StageParams, ...]
    sequence_ids: tuple[str, ...]
    assertions: tuple[TrendAssertion, ...]
    crosscheck: Optional[CrosscheckSpec]


@dataclass(frozen=True)
class AssertionOutcome:
    assertion: TrendAssertion
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    passed: bool
    outcomes: tuple[AssertionOutcome, ...]
    artifacts: tuple[str, ...]
    trajectories: dict


@dataclass(frozen=True)
class CrosscheckRow:
    label: str
    membership: Estimate
    extension: Estimate
    diff: float
    bound: float
    passed: bool


@dataclass(frozen=True)
class CrosscheckResult:
    passed: bool
    rows: tuple[CrosscheckRow, ...]
    artifacts: tuple[str, ...]


def _fraction(token: str, what: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: not a rational: {token!r}") from exc


def _tolerance(token: str, what: str) -> Fraction:
    tol = _fraction(token, what)
    if not 0 < tol < 1:
        raise ConfigError(f"{what}: tolerance must be in (0,1), got {token}")
    return tol


def _natural(token: str, what: str, minimum: int = 0) -> int:
    try:
        value = int(token)
    except ValueError as exc:
        raise ConfigError(f"{what}: not an integer: {token!r}") from exc
    if value < minimum:
        raise ConfigError(f"{what}: must be >= {minimum}, got {value}")
    return value


def _parse_assertion(name: str, raw: str, stage_count: int) -> TrendAssertion:
    covers: tuple[str, ...] = ()
    if "::" in raw:
        raw, tag_part = raw.split("::", 1)
        covers = tuple(t.strip() for t in tag_part.split(",") if t.strip())
    tokens = raw.split()
    if not tokens:
        raise ConfigError(f"assertion {name}: empty")
    kind = tokens[0]
    args = tokens[1:]
    where = f"assertion {name}"
    if kind not in _KINDS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    if kind == "approaches":
        if len(args) != 4:
            raise ConfigError(f"{where}: expected <seq> <target> <tol> <window>")
        seq_ids = (args[0],)
        target = _fraction(args[1], where)
        tol = _tolerance(args[2], where)
        window = _natural(args[3], where, 1)
    elif kind == "sum":
        if len(args) < 4:
            raise ConfigError(f"{where}: expected <target> <tol> <window> <seq...>")
        target = _fraction(args[0], where)
        tol = _tolerance(args[1], where)
        window = _natural(args[2], where, 1)
        seq_ids = tuple(args[3:])
    elif kind == "diff":
        if len(args) != 4:
            raise ConfigError(f"{where}: expected <seq_a> <seq_b> <tol> <window>")
        seq_ids = (args[0], args[1])
        target = None
        tol = _tolerance(args[2], where)
        window = _natural(args[3], where, 1)
    elif kind in ("nonincreasing", "nondecreasing"):
        if len(args) != 2:
            raise ConfigError(f"{where}: expected <seq> <window>")
        seq_ids = (args[0],)
        target = None
        tol = None
        window = _natural(args[1], where, 1)
    else:  # stabilizes
        if len(args) != 3:
            raise ConfigError(f"{where}: expected <seq> <tol> <window>")
        seq_ids = (args[0],)
        target = None
        tol = _tolerance(args[1], where)
        window = _natural(args[2], where, 1)
    if window > stage_count:
        raise ConfigError(
            f"{where}: window {window} exceeds the {stage_count}-stage schedule"
        )
    return TrendAssertion(name, kind, seq_ids, target, tol, window, covers)


_STAGE_KEYS = ("count", "cap", "proof_floor", "proof_factor")


def _build_schedule(section: configparser.SectionProxy) -> tuple[StageParams, ...]:
    for key in section:
        if key not in _STAGE_KEYS:
            raise ConfigError(
                f"[stages] unknown key {key!r}; expected one of {', '.join(_STAGE_KEYS)}"
            )
    count = _natural(section.get("count", "5"), "[stages] count", 1)
    cap = _natural(section.get("cap", str(GROWTH_CAP)), "[stages] cap", 1)
    proof_floor = _natural(section.get("proof_floor", "256"), "[stages] proof_floor", 1)
    proof_factor = _natural(section.get("proof_factor", "16"), "[stages] proof_factor", 1)
    schedule = []
    for n in range(1, count + 1):
        size = min(default_growth(n), cap)
        con = ConParams(proof_budget=max(proof_floor, proof_factor * size))
        schedule.append(StageParams(n=n, growth=default_growth, con=con, cap=cap))
    return tuple(schedule)


def _parse_battery(raw: str) -> tuple[Sentence, ...]:
    battery = []
    for part in raw.split(";"):
        text = part.strip()
        if not text:
            continue
        try:
            battery.append(parse_sentence(text))
        except ParseError as exc:
            raise ConfigError(f"[crosscheck] battery: {exc} in {text!r}") from exc
    if not battery:
        raise ConfigError("[crosscheck] battery: no sentences")
    return tuple(battery)


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    suite = parser["suite"] if parser.has_section("suite") else {}
    suite_id = suite.get("id", "suite")
    samples = _natural(suite.get("samples", "200"), "[suite] samples", 1)
    seed = _natural(suite.get("seed", "1"), "[suite] seed")
    out_dir = suite.get("out", f"runs/{suite_id}")
    stages_section = (
        parser["stages"] if parser.has_section("stages") else _empty_section("stages")
    )
    schedule = _build_schedule(stages_section)
    seq_ids: list[str] = []
    if parser.has_section("sequences"):
        seq_ids = parser["sequences"].get("ids", "").split()
    assertions = []
    if parser.has_section("assert"):
        for name, raw in parser["assert"].items():
            assertions.append(_parse_assertion(name, raw, len(schedule)))
    for a in assertions:
        for sid in a.seq_ids:
            if sid not in seq_ids:
                seq_ids.append(sid)
    for sid in seq_ids:
        try:
            sequence_by_id(sid)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    crosscheck = None
    if parser.has_section("crosscheck"):
        section = parser["crosscheck"]
        atom_window = _natural(section.get("atom_window", "3"), "[crosscheck] atom_window", 1)
        if atom_window > 4:
            raise ConfigError("[crosscheck] atom_window: capped at 4")
        crosscheck = CrosscheckSpec(
            battery=_parse_battery(section.get("battery", "")),
            rounds=_natural(section.get("rounds", "64"), "[crosscheck] rounds", 1),
            machine_budget=_natural(
                section.get("machine_budget", "64"), "[crosscheck] machine_budget", 1
            ),
            atom_window=atom_window,
            samples=_natural(section.get("samples", "400"), "[crosscheck] samples", 1),
            tol=_tolerance(section.get("tol", "0.10"), "[crosscheck] tol"),
        )
    return ExperimentConfig(
        suite_id=suite_id,
        samples=samples,
        seed=seed,
        out_dir=out_dir,
        schedule=schedule,
        sequence_ids=tuple(seq_ids),
        assertions=tuple(assertions),
        crosscheck=crosscheck,
    )


def _empty_section(name: str) -> configparser.SectionProxy:
    parser = configparser.ConfigParser()
    parser.add_section(name)
    return parser[name]


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text, source=str(p))


# --- evaluation -------------------------------------------------------------


def _values(trajectories: dict, sid: str) -> list[Fraction]:
    return [e.value for e in trajectories[sid]]


def evaluate_assertion(a: TrendAssertion, trajectories: dict) -> AssertionOutcome:
    w = a.window
    if a.kind == "approaches":
        tail = _values(trajectories, a.seq_ids[0])[-w:]
        mean = sum(tail, Fraction(0)) / len(tail)
        passed = abs(mean - a.target) <= a.tol
        detail = f"tail mean {float(mean):.4f}, target {float(a.target):.4f}, tol {float(a.tol):.4f}"
    elif a.kind == "sum":
        series = [_values(trajectories, sid) for sid in a.seq_ids]
        sums = [sum(col, Fraction(0)) for col in zip(*series)]
        tail = sums[-w:]
        mean = sum(tail, Fraction(0)) / len(tail)
        passed = abs(mean - a.target) <= a.tol
        detail = f"tail mean {float(mean):.4f}, target {float(a.target):.4f}, tol {float(a.tol):.4f}"
    elif a.kind == "diff":
        va = _values(trajectories, a.seq_ids[0])
        vb = _values(trajectories, a.seq_ids[1])
        diffs = [abs(x - y) for x, y in zip(va, vb)]
        tail = diffs[-w:]
        mean = sum(tail, Fraction(0)) / len(tail)
        passed = mean <= a.tol
        detail = f"tail mean |diff| {float(mean):.4f}, tol {float(a.tol):.4f}"
    elif a.kind in ("nonincreasing", "nondecreasing"):
        tail = _values(trajectories, a.seq_ids[0])[-w:]
        if a.kind == "nonincreasing":
            passed = all(x >= y for x, y in zip(tail, tail[1:]))
        else:
            passed = all(x <= y for x, y in zip(tail, tail[1:]))
        detail = "tail " + " ".join(f"{float(v):.4f}" for v in tail)
    else:  # stabilizes
        tail = _values(trajectories, a.seq_ids[0])[-w:]
        spread = max(tail) - min(tail)
        passed = spread <= a.tol
        detail = f"tail spread {float(spread):.4f}, tol {float(a.tol):.4f}"
    return AssertionOutcome(a, passed, detail)


# --- artifacts --------------------------------------------------------------


def _csv_quote(field: str) -> str:
    if any(c in field for c in ',"\n'):
        return '"' + field.replace('"', '""') + '"'
    return field


def _write_text(path: Path, content: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8", newline="")
    return str(path)


def _trajectory_rows(cfg: ExperimentConfig, trajectories: dict) -> list[dict]:
    rows = []
    for sid in trajectories:
        for stage, est in zip(cfg.schedule, trajectories[sid]):
            rows.append(
                {
                    "seq_id": sid,
                    "n": stage.n,
                    "value": float(est.value),
                    "ci": est.ci_halfwidth,
                    "samples": est.samples,
                    "seed": est.seed,
                    "mode": est.mode.value,
                }
            )
    return rows


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_quote(str(row[c])) for c in columns))
    return "\n".join(lines) + "\n"


def _rows_to_jsonl(rows: list[dict]) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


def _assertion_chart(a: TrendAssertion, cfg: ExperimentConfig, trajectories: dict) -> str:
    ns = [stage.n for stage in cfg.schedule]
    series = []
    for sid in a.seq_ids:
        pts = tuple(
            SeriesPoint(float(n), float(e.value), e.ci_halfwidth)
            for n, e in zip(ns, trajectories[sid])
        )
        series.append(Series(sid, pts))
    if a.kind == "sum":
        cols = list(zip(*(_values(trajectories, sid) for sid in a.seq_ids)))
        pts = tuple(
            SeriesPoint(float(n), float(sum(col, Fraction(0))), 0.0)
            for n, col in zip(ns, cols)
        )
        series.append(Series("sum", pts))
    elif a.kind == "diff":
        va = _values(trajectories, a.seq_ids[0])
        vb = _values(trajectories, a.seq_ids[1])
        pts = tuple(
            SeriesPoint(float(n), float(abs(x - y)), 0.0)
            for n, x, y in zip(ns, va, vb)
        )
        series.append(Series("|diff|", pts))
    return render_chart(f"{a.name} ({a.kind})", series)


def emit_plots(
    cfg: ExperimentConfig, trajectories: dict, out: Path
) -> list[str]:
    paths = []
    for a in cfg.assertions:
        chart = _assertion_chart(a, cfg, trajectories)
        paths.append(_write_text(out / f"assert_{a.name}.svg", chart))
    return paths


def run_suite(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> SuiteResult:
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    cache = ConCache()
    seqs = [sequence_by_id(sid) for sid in cfg.sequence_ids]
    trajectories = sequence_trajectories(
        seqs, cfg.schedule, cfg.samples, cfg.seed, cache
    )
    outcomes = tuple(evaluate_assertion(a, trajectories) for a in cfg.assertions)
    rows = _trajectory_rows(cfg, trajectories)
    columns = ["seq_id", "n", "value", "ci", "samples", "seed", "mode"]
    artifacts = [
        _write_text(out / "trajectories.csv", _rows_to_csv(rows, columns)),
        _write_text(out / "trajectories.jsonl", _rows_to_jsonl(rows)),
    ]
    artifacts.extend(emit_plots(cfg, trajectories, out))
    report_lines = [f"suite {cfg.suite_id}: samples={cfg.samples} seed={cfg.seed}"]
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        report_lines.append(f"{status} {o.assertion.name}: {o.detail}")
    report_lines.append(
        "gate cache: entries={entries} hits={hits} misses={misses}".format(**cache.stats())
    )
    artifacts.append(_write_text(out / "report.txt", "\n".join(report_lines) + "\n"))
    return SuiteResult(
        passed=all(o.passed for o in outcomes),
        outcomes=outcomes,
        artifacts=tuple(artifacts),
        trajectories=trajectories,
    )


def run_crosscheck(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> CrosscheckResult:
    if cfg.crosscheck is None:
        raise ConfigError("config has no [crosscheck] section")
    spec = cfg.crosscheck
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    stage = cfg.schedule[-1]
    battery = list(spec.battery)
    counts = membership_counts(battery, stage, cfg.samples, cfg.seed)
    memberships = [monte_carlo_estimate(c, cfg.samples, cfg.seed) for c in counts]
    extensions = extension_probabilities(
        battery,
        derive_seed(cfg.seed, 1),
        spec.rounds,
        spec.samples,
        machine_budget=spec.machine_budget,
        atom_window=spec.atom_window,
    )
    rows = []
    for phi, m_est, p_est in zip(battery, memberships, extensions):
        diff = abs(float(m_est.value) - float(p_est.value))
        bound = float(spec.tol) + m_est.ci_halfwidth + p_est.ci_halfwidth
        rows.append(
            CrosscheckRow(
                label=render_sentence(phi),
                membership=m_est,
                extension=p_est,
                diff=diff,
                bound=bound,
                passed=diff <= bound,
            )
        )
    columns = [
        "sentence",
        "n",
        "membership",
        "membership_ci",
        "extension",
        "extension_ci",
        "undecided",
        "diff",
        "bound",
        "passed",
    ]
    table = [
        {
            "sentence": r.label,
            "n": stage.n,
            "membership": float(r.membership.value),
            "membership_ci": r.membership.ci_halfwidth,
            "extension": float(r.extension.value),
            "extension_ci": r.extension.ci_halfwidth,
            "undecided": r.extension.undecided,
            "diff": r.diff,
            "bound": r.bound,
            "passed": r.passed,
        }
        for r in rows
    ]
    series = [
        Series(
            "membership",
            tuple(
                SeriesPoint(float(i), float(r.membership.value), r.membership.ci_halfwidth)
                for i, r in enumerate(rows)
            ),
        ),
        Series(
            "extension",
            tuple(
                SeriesPoint(float(i), float(r.extension.value), r.extension.ci_halfwidth)
                for i, r in enumerate(rows)
            ),
        ),
    ]
    artifacts = [
        _write_text(out / "crosscheck.csv", _rows_to_csv(table, columns)),
        _write_text(out / "crosscheck.jsonl", _rows_to_jsonl(table)),
        _write_text(out / "crosscheck.svg", render_chart("membership vs extension", series)),
    ]
    report_lines = [
        f"crosscheck {cfg.suite_id}: stage n={stage.n} samples={cfg.samples}/{spec.samples}"
    ]
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        report_lines.append(
            f"{status} {r.label}: membership {float(r.membership.value):.4f}"
            f" vs extension {float(r.extension.value):.4f}"
            f" (diff {r.diff:.4f}, bound {r.bound:.4f}, undecided {r.extension.undecided})"
        )
    artifacts.append(_write_text(out / "crosscheck_report.txt", "\n".join(report_lines) + "\n"))
    return CrosscheckResult(
        passed=all(r.passed for r in rows),
        rows=tuple(rows),
        artifacts=tuple(artifacts),
    )
