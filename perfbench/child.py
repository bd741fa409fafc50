"""One benchmark operation in a fresh interpreter.

Usage: python3 perfbench/child.py JOB.json

The job names one pipeline call: a ``sentprob`` CLI command (``cli``), an
``extension_probabilities`` call (``extension``) or a
``membership_counts_exact`` call (``exact``). Setup is everything from
interpreter start to the pipeline call: the ``sentprob`` import, config load
and schedule build. The child writes a JSON result to the job's ``result``
path: monotonic timestamps at setup end and pipeline end, the CLI exit code
or the estimator digest, CPU seconds and peak RSS, and, when ``trace`` is set,
the tracer's summary (spans are also written to the job's ``spans`` path).
"""

import time

T_START = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def peak_rss_kb() -> int:
    """Peak resident set of this interpreter. ru_maxrss would also count the
    benchmark process, which it keeps across the exec that started this one."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    result: dict = {"t_start": T_START}
    tracer = None
    try:
        if job["trace"]:
            from tracer import Tracer, install  # the script's own directory

            tracer = Tracer()
            install(tracer)
            tracer.begin_run(job["run_id"])
        if job["kind"] == "cli":
            from sentprob import cli

            # The pipeline call is the command's run_suite/run_crosscheck;
            # argument parsing and config load before it count as setup.
            name = "run_suite" if job["argv"][0] == "run" else "run_crosscheck"
            inner = getattr(cli, name)

            def timed(*args, **kwargs):
                result["t_setup"] = time.monotonic()
                try:
                    return inner(*args, **kwargs)
                finally:
                    result["t_end"] = time.monotonic()

            setattr(cli, name, timed)
            result["exit"] = cli.main(job["argv"])
        elif job["kind"] == "extension":
            from sentprob import estimator
            from sentprob.harness import load_config

            spec = load_config(job["config"]).crosscheck
            result["t_setup"] = time.monotonic()
            estimates = estimator.extension_probabilities(
                spec.battery,
                job["seed"],
                spec.rounds,
                job["samples"],
                machine_budget=spec.machine_budget,
                atom_window=spec.atom_window,
            )
            result["t_end"] = time.monotonic()
            n = job["samples"]
            counts = [int(e.value * n) for e in estimates]
            undecided = [e.undecided for e in estimates]
            result["counts"] = counts
            result["undecided"] = undecided
            result["digest"] = digest({"counts": counts, "undecided": undecided})
        elif job["kind"] == "exact":
            from sentprob import estimator
            from sentprob.logic import parse_sentence

            battery = [parse_sentence(t) for t in job["battery"]]
            stage = estimator.single_machine_stage(job["bits"])
            result["t_setup"] = time.monotonic()
            counts, total = estimator.membership_counts_exact(
                battery, stage, bit_budget=job["bits"]
            )
            result["t_end"] = time.monotonic()
            result["counts"] = counts
            result["total"] = total
            result["digest"] = digest({"counts": counts, "total": total})
        else:
            raise ValueError(f"unknown job kind {job['kind']!r}")
    except SystemExit as exc:  # argparse usage errors
        result["exit"] = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        result["error"] = traceback.format_exc()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["rss_kb"] = peak_rss_kb()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(Path(job["spans"]))
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
