"""The benchmark's own tests.

Run from the root of a checkout: python3 perfbench/checks.py
(under a minute; every operation runs in child interpreters as in a real run).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import resource
import shutil
import subprocess
import sys
import unittest

import run
from tracer import LAYERS, SPAN_NAMES, read_spans, self_times

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SEED = run.SPEC["default_seed"]
# Reduced sizes keep these tests quick; pinned references apply to the
# sizes in spec.json only, so these runs compare repetitions with each other.
SMALL = {
    "paper_check": {"samples": 2},
    "extension": {"samples": 100},
    "exact": {"bits": 12, "battery": run.SPEC["workloads"]["exact"]["battery"], "seed_unused": True},
}


def snapshot(*dirs: str) -> dict[str, str]:
    """Relative path -> sha256 of every file under the given repo dirs."""
    out = {}
    for d in dirs:
        for path in sorted((run.ROOT / d).rglob("*")):
            if path.is_file():
                out[str(path.relative_to(run.ROOT))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def main_output(*argv: str) -> tuple[int, list[str]]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(list(argv))
    return code, buf.getvalue().splitlines()


class Names(unittest.TestCase):
    def test_metric_and_workload_names(self):
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
        names += [w["name"] for w in BENCH["workloads"]] + list(SPAN_NAMES)
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.SPEC["workloads"]))

    def test_every_span_has_a_layer(self):
        for name in SPAN_NAMES:
            self.assertIn(name.split(".")[0], LAYERS)


class Digests(unittest.TestCase):
    def test_perturbed_digest_is_a_failed_operation(self):
        spec = dict(SMALL["exact"])
        good = run.run_workload("exact", SEED, 0, False, spec)
        self.assertEqual(good["failed"], 0)
        digest = good["digests"]["exact[0]"][0]
        spec["reference"] = {"exact": [digest]}
        self.assertEqual(run.run_workload("exact", SEED, 0, False, spec)["failed"], 0)
        spec["reference"] = {"exact": [digest[:-1] + ("0" if digest[-1] != "0" else "1")]}
        bad = run.run_workload("exact", SEED, 0, False, spec)
        self.assertEqual((bad["attempted"], bad["failed"]), (1, 1))

    def test_exact_16_bit_counts(self):
        spec = run.SPEC["workloads"]["exact"]
        work = run.WORK / "checks"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        op = {"name": "exact", "kind": "exact", "bits": 16, "battery": spec["battery"]}
        stem = work / "exact"
        job = dict(op, trace=False, run_id="checks", result=f"{stem}.result.json", spans=f"{stem}.spans")
        (work / "exact.job.json").write_text(json.dumps(job))
        subprocess.run([sys.executable, str(run.HERE / "child.py"), str(work / "exact.job.json")],
                       cwd=run.ROOT, env=run.child_env(), check=True, timeout=120)
        result = json.loads((work / "exact.result.json").read_text())
        self.assertEqual(result["counts"], spec["counts_16"])
        self.assertEqual(result["total"], 65536)


class Scaling(unittest.TestCase):
    def test_times_are_scaled_by_the_calibrated_speed(self):
        result = run.run_workload("exact", SEED, 0, False, SMALL["exact"])
        for name in ("setup_s", "wall_s"):
            with self.subTest(metric=name):
                self.assertAlmostEqual(result["metrics"][name], result["raw"][name] * result["speed"])
        self.assertEqual(len(run.calibrate()), run.CALIBRATION_RUNS)

    def test_peak_rss_excludes_the_calibration_table(self):
        run.lookup_table()
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result = run.run_workload("exact", SEED, 0, False, SMALL["exact"])
        self.assertLess(result["metrics"]["peak_rss_mb"], own_mb)


class Traced(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        watched = ("src", "tests", "runs", "demo_run")
        cls.before = snapshot(*watched)
        cls.results = {w: run.run_workload(w, SEED, 0, True, SMALL[w]) for w in SMALL}
        cls.after = snapshot(*watched)

    def test_traced_and_untraced_digests_agree(self):
        for w, result in self.results.items():
            with self.subTest(workload=w):
                # Repetition 0 is untraced, 1 traced; both are checked against
                # the same per-operation reference.
                self.assertGreaterEqual(result["reps"], 2)
                self.assertEqual(result["failed"], 0, result["problems"])

    def test_traced_run_leaves_sources_and_artifacts_untouched(self):
        self.assertEqual(self.before, self.after)

    def test_layer_self_times_add_up_to_wall(self):
        for w, result in self.results.items():
            m = result["metrics"]
            layers = sum(m[f"{layer}.self_s"] for layer in LAYERS)
            with self.subTest(workload=w):
                self.assertAlmostEqual(layers + m["trace.unattributed_s"], m["trace.wall_s"], places=6)

    def test_every_per_layer_metric_is_reported(self):
        declared = {m["name"] for m in BENCH["per_layer"]}
        for w, result in self.results.items():
            with self.subTest(workload=w):
                self.assertLessEqual(declared, set(result["metrics"]))

    def test_spans_file_matches_summary(self):
        spans = read_spans(run.WORK / "exact" / "exact.spans")
        selfs = self_times(spans["parent"], spans["start"], spans["end"])
        roots = sum(e - s for p, s, e in zip(spans["parent"], spans["start"], spans["end"]) if p < 0)
        self.assertAlmostEqual(sum(selfs), roots, places=6)
        self.assertEqual(spans["header"]["names"], list(SPAN_NAMES))
        m = self.results["exact"]["metrics"]
        calls = sum(1 for i in spans["name"] if spans["header"]["names"][i] == "logic.render_sentence")
        self.assertEqual(calls, m["logic.render_sentence.calls"])


class ResultLine(unittest.TestCase):
    def test_last_line_has_the_contract_keys(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = main_output("--workload", "exact", "--seconds", "0", "--trace", str(trace))
            self.assertEqual(code, 0)
            line = json.loads(lines[-1])
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(line["correct"])
            self.assertEqual(set(line["metrics"]), {m["name"] for m in BENCH[key]})

    def test_fails_without_sources(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, *BENCH["command"][1:], "--workload", "exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
