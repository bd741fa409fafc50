"""Config-driven experiment harness.

A suite config is an INI file. [suite] names the run and pins samples, seed
and output directory; [stages] hands count, cap, proof_floor and
proof_factor to estimator.default_schedule, which holds their defaults, and
rejects any other key and a cap above the growth ceiling; [sequences] lists
each trajectory family once under its one key, ids; [assert] holds one trend
assertion per line; an optional [crosscheck] section configures the
membership-vs-extension comparison, and rejects a battery sentence too wide
for the extension sampler's tables at its atom window. Any other section,
and an unknown key in any section but [assert], is a ConfigError.

Assertion grammar (value of each [assert] key, covers tags optional):

    approaches <seq> <target> <tol> <window>      tail mean within tol
    sum <target> <tol> <window> <seq...>          tail mean of per-stage sums
    diff <seq_a> <seq_b> <tol> <window>           tail mean of |a - b|
    nonincreasing <seq> <window>                  exact, ties allowed
    nondecreasing <seq> <window>                  exact, ties allowed
    stabilizes <seq> <tol> <window>               max - min over the window
    ... :: tag, tag                               property-coverage tags

<seq...> is one or more sequence ids. An [assert] key names the assertion
and its chart, assert_<key>.svg, so it is letters, digits, '_' and '-'.
Each kind is one row of _KINDS: its argument layout, the per-stage series
it judges (the chart draws that series too) and its judge. Assertions are
evaluated on exact rationals; windows count trajectory points from the
end. Artifacts (CSV, JSON-lines, one SVG per assertion, a text report) are
byte-deterministic given the same config and seed.
"""

from __future__ import annotations

import configparser
import json
import operator
import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .bits import derive_seed
from .consistency import ConCache
from .estimator import (
    MAX_ATOM_WINDOW,
    Estimate,
    StageParams,
    atoms_outside_window,
    default_schedule,
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


class ConfigError(Exception):
    pass


class TrendAssertion(NamedTuple):
    name: str
    kind: str
    seq_ids: tuple[str, ...]
    target: Optional[Fraction]
    tol: Optional[Fraction]
    window: int
    covers: tuple[str, ...] = ()


class CrosscheckSpec(NamedTuple):
    battery: tuple[Sentence, ...]
    rounds: int
    machine_budget: int
    atom_window: int
    samples: int
    tol: Fraction


class ExperimentConfig(NamedTuple):
    suite_id: str
    samples: int
    seed: int
    out_dir: str
    schedule: tuple[StageParams, ...]
    sequence_ids: tuple[str, ...]
    assertions: tuple[TrendAssertion, ...]
    crosscheck: Optional[CrosscheckSpec]


class AssertionOutcome(NamedTuple):
    assertion: TrendAssertion
    passed: bool
    detail: str

    @property
    def line(self) -> str:
        """The outcome as report.txt records it and `sentprob run` prints it."""
        return f"{'PASS' if self.passed else 'FAIL'} {self.assertion.name}: {self.detail}"


class SuiteResult(NamedTuple):
    passed: bool
    outcomes: tuple[AssertionOutcome, ...]
    artifacts: tuple[str, ...]
    trajectories: dict


class CrosscheckRow(NamedTuple):
    label: str
    membership: Estimate
    extension: Estimate
    diff: float
    bound: float
    passed: bool

    @property
    def line(self) -> str:
        """The row as crosscheck_report.txt records it and `sentprob
        crosscheck` prints it."""
        return (
            f"{'PASS' if self.passed else 'FAIL'} {self.label}:"
            f" membership {float(self.membership.value):.4f}"
            f" vs extension {float(self.extension.value):.4f}"
            f" (diff {self.diff:.4f}, bound {self.bound:.4f}, undecided {self.extension.undecided})"
        )


class CrosscheckResult(NamedTuple):
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


# --- assertion kinds --------------------------------------------------------


def _mean(tail: list[Fraction]) -> Fraction:
    return sum(tail, Fraction(0)) / len(tail)


def _within(label: str, statistic: Callable[[list[Fraction]], Fraction]) -> Callable:
    """Judge: the tail statistic is within tol of the target. A kind with no
    target has a nonnegative statistic and is judged against 0."""

    def judge(tail: list[Fraction], a: TrendAssertion) -> tuple[bool, str]:
        value = statistic(tail)
        passed = abs(value - (a.target or 0)) <= a.tol
        target = "" if a.target is None else f", target {float(a.target):.4f}"
        return passed, f"{label} {float(value):.4f}{target}, tol {float(a.tol):.4f}"

    return judge


def _ordered(step: Callable[[Fraction, Fraction], bool]) -> Callable:
    """Judge: every consecutive pair of the tail satisfies step."""

    def judge(tail: list[Fraction], a: TrendAssertion) -> tuple[bool, str]:
        passed = all(step(x, y) for x, y in zip(tail, tail[1:]))
        return passed, "tail " + " ".join(f"{float(v):.4f}" for v in tail)

    return judge


class _Kind(NamedTuple):
    # Argument slots after the kind word: seq* slots are sequence ids, the
    # others TrendAssertion fields; a final "seq..." takes one or more ids.
    layout: tuple[str, ...]
    # The per-stage series judged, from the value columns of the seq ids.
    series: Callable[[list[list[Fraction]]], list[Fraction]]
    # Its name in the chart, or None when it is the one sequence's own.
    chart_label: Optional[str]
    # (window tail of the series, assertion) -> (passed, detail)
    judge: Callable[[list[Fraction], TrendAssertion], tuple[bool, str]]


_only = operator.itemgetter(0)

_KINDS = {
    "approaches": _Kind(
        ("seq", "target", "tol", "window"), _only, None, _within("tail mean", _mean)
    ),
    "sum": _Kind(
        ("target", "tol", "window", "seq..."),
        lambda columns: [sum(col, Fraction(0)) for col in zip(*columns)],
        "sum",
        _within("tail mean", _mean),
    ),
    "diff": _Kind(
        ("seq_a", "seq_b", "tol", "window"),
        lambda columns: [abs(x - y) for x, y in zip(*columns)],
        "|diff|",
        _within("tail mean |diff|", _mean),
    ),
    "nonincreasing": _Kind(("seq", "window"), _only, None, _ordered(operator.ge)),
    "nondecreasing": _Kind(("seq", "window"), _only, None, _ordered(operator.le)),
    "stabilizes": _Kind(
        ("seq", "tol", "window"), _only, None, _within("tail spread", lambda t: max(t) - min(t))
    ),
}

_SLOT_PARSERS = {
    "target": _fraction,
    "tol": _tolerance,
    "window": lambda token, what: _natural(token, what, 1),
}

# An assertion's name is its [assert] key and names its chart file.
_NAME = re.compile(r"[A-Za-z0-9_-]+")


def _parse_assertion(name: str, raw: str, stage_count: int) -> TrendAssertion:
    where = f"assertion {name}"
    if not _NAME.fullmatch(name):
        raise ConfigError(f"[assert] key {name!r}: a name is letters, digits, '_' and '-' only")
    covers: tuple[str, ...] = ()
    if "::" in raw:
        raw, tag_part = raw.split("::", 1)
        covers = tuple(t.strip() for t in tag_part.split(",") if t.strip())
    tokens = raw.split()
    if not tokens:
        raise ConfigError(f"{where}: empty")
    kind, args = tokens[0], tokens[1:]
    if kind not in _KINDS:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    layout = _KINDS[kind].layout
    rest = layout[-1] == "seq..."
    if len(args) < len(layout) or (len(args) > len(layout) and not rest):
        raise ConfigError(f"{where}: expected " + " ".join(f"<{slot}>" for slot in layout))
    seq_ids: list[str] = []
    values: dict = {"target": None, "tol": None}
    for slot, token in zip(layout, args):
        if slot.startswith("seq"):
            seq_ids.append(token)
        else:
            values[slot] = _SLOT_PARSERS[slot](token, where)
    seq_ids.extend(args[len(layout) :])  # the rest of a final "seq..."
    for i, sid in enumerate(seq_ids):
        if sid in seq_ids[:i]:
            raise ConfigError(f"{where}: sequence {sid!r} is named twice")
    if values["window"] > stage_count:
        raise ConfigError(
            f"{where}: window {values['window']} exceeds the {stage_count}-stage schedule"
        )
    return TrendAssertion(name, kind, tuple(seq_ids), covers=covers, **values)


_SECTIONS = ("suite", "stages", "sequences", "assert", "crosscheck")
_SUITE_KEYS = ("id", "samples", "seed", "out")
_STAGE_KEYS = ("count", "cap", "proof_floor", "proof_factor")
_CROSSCHECK_KEYS = ("battery", "rounds", "machine_budget", "atom_window", "samples", "tol")
_SEQUENCE_KEYS = ("ids",)


def _check_keys(
    section: Iterable[str], where: str, known: tuple[str, ...], what: str = "key"
) -> None:
    for key in section:
        if key not in known:
            raise ConfigError(
                f"{where} unknown {what} {key!r}; expected one of {', '.join(known)}"
            )


def _build_schedule(section: Mapping[str, str]) -> tuple[StageParams, ...]:
    _check_keys(section, "[stages]", _STAGE_KEYS)
    given = {key: _natural(section[key], f"[stages] {key}", 1) for key in section}
    try:
        return tuple(default_schedule(**given))
    except ValueError as exc:
        raise ConfigError(f"[stages] {exc}") from exc


def _excerpt(text: str) -> str:
    """text quoted for an error message, cut to its first 200 characters so
    a long sentence keeps the message to one short line."""
    if len(text) <= 200:
        return repr(text)
    return f"{text[:200]!r}... ({len(text)} characters)"


def _parse_battery(raw: str, atom_window: int) -> tuple[Sentence, ...]:
    battery = []
    for part in raw.split(";"):
        text = part.strip()
        if not text:
            continue
        try:
            phi = parse_sentence(text)
        except ParseError as exc:
            raise ConfigError(f"[crosscheck] battery: {exc} in {_excerpt(text)}") from exc
        try:
            atoms_outside_window(phi, atom_window)
        except ValueError as exc:
            raise ConfigError(
                f"[crosscheck] battery: {exc} (atom_window {atom_window}): {_excerpt(text)}"
            ) from exc
        battery.append(phi)
    if not battery:
        raise ConfigError("[crosscheck] battery: no sentences")
    return tuple(battery)


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    # No interpolation: a '%' in a value is literal text, not a syntax error.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    _check_keys(parser.sections(), f"{source}:", _SECTIONS, "section")
    suite = parser["suite"] if parser.has_section("suite") else {}
    _check_keys(suite, "[suite]", _SUITE_KEYS)
    suite_id = suite.get("id", "suite")
    samples = _natural(suite.get("samples", "200"), "[suite] samples", 1)
    seed = _natural(suite.get("seed", "1"), "[suite] seed")
    out_dir = suite.get("out", f"runs/{suite_id}")
    schedule = _build_schedule(parser["stages"] if parser.has_section("stages") else {})
    seq_ids: list[str] = []
    if parser.has_section("sequences"):
        _check_keys(parser["sequences"], "[sequences]", _SEQUENCE_KEYS)
        seq_ids = parser["sequences"].get("ids", "").split()
        for i, sid in enumerate(seq_ids):
            if sid in seq_ids[:i]:
                raise ConfigError(f"[sequences] ids: {sid!r} is listed twice")
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
        _check_keys(section, "[crosscheck]", _CROSSCHECK_KEYS)
        atom_window = _natural(section.get("atom_window", "3"), "[crosscheck] atom_window", 1)
        if atom_window > MAX_ATOM_WINDOW:
            raise ConfigError(f"[crosscheck] atom_window: capped at {MAX_ATOM_WINDOW}")
        crosscheck = CrosscheckSpec(
            battery=_parse_battery(section.get("battery", ""), atom_window),
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


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return parse_config(text, source=str(p))


# --- evaluation -------------------------------------------------------------


def _series(a: TrendAssertion, trajectories: dict) -> list[Fraction]:
    """The per-stage series a's kind judges and its chart draws."""
    return _KINDS[a.kind].series([[e.value for e in trajectories[sid]] for sid in a.seq_ids])


def _judge(a: TrendAssertion, series: list[Fraction]) -> AssertionOutcome:
    return AssertionOutcome(a, *_KINDS[a.kind].judge(series[-a.window :], a))


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
                    "mode": "mc",
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


def _estimate_series(name: str, xs: Iterable[int], estimates: Iterable[Estimate]) -> Series:
    points = (SeriesPoint(float(x), float(e.value), e.ci_halfwidth) for x, e in zip(xs, estimates))
    return Series(name, tuple(points))


def _assertion_chart(
    a: TrendAssertion, cfg: ExperimentConfig, trajectories: dict, series: list[Fraction]
) -> str:
    ns = [stage.n for stage in cfg.schedule]
    lines = [_estimate_series(sid, ns, trajectories[sid]) for sid in a.seq_ids]
    label = _KINDS[a.kind].chart_label
    if label is not None:
        points = tuple(SeriesPoint(float(n), float(v), 0.0) for n, v in zip(ns, series))
        lines.append(Series(label, points))
    return render_chart(f"{a.name} ({a.kind})", lines)


def run_suite(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> SuiteResult:
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    cache = ConCache()
    seqs = [sequence_by_id(sid) for sid in cfg.sequence_ids]
    trajectories = sequence_trajectories(
        seqs, cfg.schedule, cfg.samples, cfg.seed, cache
    )
    rows = _trajectory_rows(cfg, trajectories)
    columns = ["seq_id", "n", "value", "ci", "samples", "seed", "mode"]
    artifacts = [
        _write_text(out / "trajectories.csv", _rows_to_csv(rows, columns)),
        _write_text(out / "trajectories.jsonl", _rows_to_jsonl(rows)),
    ]
    outcomes = []
    for a in cfg.assertions:
        series = _series(a, trajectories)
        outcomes.append(_judge(a, series))
        chart = _assertion_chart(a, cfg, trajectories, series)
        artifacts.append(_write_text(out / f"assert_{a.name}.svg", chart))
    report_lines = [
        f"suite {cfg.suite_id}: samples={cfg.samples} seed={cfg.seed}",
        *(o.line for o in outcomes),
        "gate cache: entries={entries} hits={hits} misses={misses}".format(**cache.stats()),
    ]
    artifacts.append(_write_text(out / "report.txt", "\n".join(report_lines) + "\n"))
    return SuiteResult(
        passed=all(o.passed for o in outcomes),
        outcomes=tuple(outcomes),
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
    counts = membership_counts(battery, stage, cfg.samples, cfg.seed, ConCache())
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
        _estimate_series("membership", range(len(rows)), memberships),
        _estimate_series("extension", range(len(rows)), extensions),
    ]
    artifacts = [
        _write_text(out / "crosscheck.csv", _rows_to_csv(table, columns)),
        _write_text(out / "crosscheck.jsonl", _rows_to_jsonl(table)),
        _write_text(out / "crosscheck.svg", render_chart("membership vs extension", series)),
    ]
    report_lines = [
        f"crosscheck {cfg.suite_id}: stage n={stage.n} samples={cfg.samples}/{spec.samples}",
        *(r.line for r in rows),
    ]
    artifacts.append(_write_text(out / "crosscheck_report.txt", "\n".join(report_lines) + "\n"))
    return CrosscheckResult(
        passed=all(r.passed for r in rows),
        rows=tuple(rows),
        artifacts=tuple(artifacts),
    )
