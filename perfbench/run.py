#!/usr/bin/env python3
"""End-to-end benchmark of `heartlab run`.

    python3 perfbench/run.py --workload demo|paper_10k|explain \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --kernels [--scale X]

Run it from the repository root; it imports heartlab from ./src. Each
`heartlab run` happens in a fresh process (perfbench/child.py). Inputs
(fixture CSV and config) are written from --seed under .perfbench_out/.

--trace 0 measures the end-to-end metrics: setup_s is the median of
several fresh `import heartlab` probes; run_s, cpu_s and peak_rss_mb are
medians over the runs that fit in --seconds (at least one); the quality
metrics are the mean real-track accuracy and R2 from metrics.csv.

--trace 1 makes three runs of the same inputs: untraced, traced at the
default job count, and traced at HEARTLAB_N_JOBS=1. It reports the
per-layer metrics of the traced default run, per-layer self times of the
one-job run, the tracing overhead (traced minus untraced run_s) and the
parallel speedup (one-job over default run_s).

The job count is heartlab's default, capped at the cores this process
may use. Every run is checked: exit code, manifest status, metrics.csv
rows, explanation files, the release-gate floors that apply, and the
sha256 digest of the bundle, which must agree between runs of one
invocation. The last stdout line is the JSON result.

--kernels prints the kernel report instead: the six kernels timed on
their active backend, and an exact-match check against numba when it is
installed, or else against the uncompiled loop kernels on small inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import bundle_digest, check_bundle
from workloads import DEFAULT_SEED, FIXTURE_ROWS, WORKLOADS, build_config, needs_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".perfbench_out")   # relative to ROOT, so bundles name no absolute path

SETUP_PROBES = 10         # timed imports per measuring invocation, after one warm-up
DEADLINE_S = 170.0        # an invocation stops starting work after this
MIN_STAGE_COVERAGE = 0.95


class BenchError(Exception):
    """The checkout cannot be benchmarked: heartlab does not import from
    its src/, or its inputs cannot be written."""


def _child_env(jobs: int | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("HEARTLAB_N_JOBS", None)
    if jobs is not None:
        env["HEARTLAB_N_JOBS"] = str(jobs)
    return env


def _child(args: list, env: dict, log: Path, deadline: float) -> int:
    """Run perfbench/child.py to completion, or kill it at the deadline."""
    with open(log, "w") as fh:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                env=env, stdout=fh, stderr=subprocess.STDOUT,
                                cwd=ROOT)
        try:
            return proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -9


def _environment(probe: dict, jobs: int) -> dict:
    git_sha = "unknown"
    if shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if got.returncode == 0:
            git_sha = got.stdout.strip()
    src_files = sorted((SRC / "heartlab").glob("*.py"))
    h = hashlib.sha256()
    loc = 0
    for path in src_files:
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        loc += data.count(b"\n")
    return {"cores": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "backend": probe["backend"], "jobs": jobs, "python": probe["python"],
            "numpy": probe["numpy"], "numba": probe["numba"], "git_sha": git_sha,
            "src_sha256": h.hexdigest()[:16], "src_loc": loc}


class Runner:
    """Makes and checks the runs of one invocation."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = ROOT / work
        self.work_rel = work
        self.deadline = deadline
        self.csv_path = None
        self.first_digest = None
        self.attempted = 0
        self.failed = 0

    def probe(self, tag: str) -> dict:
        """A fresh process that only imports heartlab; gives setup_s."""
        result = self.work / f"probe-{tag}.json"
        log = self.work / f"probe-{tag}.log"
        rc = _child(["import", repr(time.monotonic()), str(result)], _child_env(), log,
                    self.deadline)
        if rc != 0:
            raise BenchError(f"import probe failed; see {log}")
        probe = json.loads(result.read_text())
        if not Path(probe["heartlab_file"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"heartlab imported from {probe['heartlab_file']}, not {SRC}")
        return probe

    def write_inputs(self) -> None:
        if not needs_csv(self.workload):
            return
        self.csv_path = self.work_rel / "fixture.csv"
        got = subprocess.run(
            [sys.executable, "-m", "heartlab", "fixture", str(self.csv_path),
             "--n", str(FIXTURE_ROWS), "--seed", str(self.seed)],
            env=_child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        if got.returncode != 0:
            raise BenchError(f"heartlab fixture failed: {got.stderr.strip()}")

    def run(self, tag: str, jobs: int, traced: bool) -> dict | None:
        """One checked run; returns the child's result, or None if it failed."""
        self.attempted += 1
        # every run of an invocation writes the same config to the same
        # place, because the manifest records the paths
        out_dir = self.work / "bundle"
        doc = build_config(self.workload, self.seed, str(self.work_rel / "bundle"),
                           None if self.csv_path is None else str(self.csv_path))
        cfg = self.work / "config.json"
        cfg.write_text(json.dumps(doc, indent=2) + "\n")
        shutil.rmtree(out_dir, ignore_errors=True)
        result_path = self.work / f"result-{tag}.json"
        args = ["run", repr(time.monotonic()), str(result_path), str(cfg)]
        if traced:
            args += [str(self.work / f"spans-{tag}.jsonl"),
                     f"{self.workload}-{self.seed}-{tag}"]
        rc = _child(args, _child_env(jobs), self.work / f"run-{tag}.log", self.deadline)
        problems = []
        result = None
        if rc != 0 or not result_path.is_file():
            problems.append(f"child exited {rc}")
        else:
            result = json.loads(result_path.read_text())
            if result["rc"] != 0:
                problems.append(f"heartlab run exited {result['rc']}")
        if out_dir.is_dir():
            found, quality = check_bundle(self.workload, doc, out_dir)
            problems += found
            digest, n_files, n_bytes = bundle_digest(out_dir)
            if self.first_digest is None:
                self.first_digest = digest
            elif digest != self.first_digest:
                problems.append("bundle bytes differ from the first run of this seed")
            shutil.rmtree(out_dir)
            if result is not None:
                result.update(quality=quality, digest=digest, bundle_files=n_files,
                              bundle_bytes=n_bytes)
        else:
            problems.append("no bundle directory written")
        if result is not None and traced:
            coverage = result["layers"]["runner.stage_coverage"]
            if coverage < MIN_STAGE_COVERAGE:
                problems.append(f"runner stages cover {coverage:.3f} of run_s")
        status = "ok" if not problems else "FAILED: " + "; ".join(problems)
        run_s = f"{result['run_s']:.3f}s" if result else "-"
        print(f"run {tag}: jobs={jobs} traced={int(traced)} run_s={run_s} {status}",
              file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        return result


def _measure(runner: Runner, seconds: float, jobs: int) -> dict:
    # import probes before and after the runs, so setup_s samples both ends
    probes = [runner.probe(f"a{i}") for i in range(SETUP_PROBES // 2)]
    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        r = runner.run(f"u{len(runs)}", jobs, traced=False)
        if r is None:
            break
        runs.append(r)
        now = time.monotonic()
        if now - start + (now - t0) > seconds or now + (now - t0) > runner.deadline:
            break
    if time.monotonic() < runner.deadline:
        probes += [runner.probe(f"b{i}") for i in range(SETUP_PROBES - len(probes))]
    metrics = {"setup_s": statistics.median(p["setup_s"] for p in probes)}
    if runs:
        for key in ("run_s", "cpu_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in runs)
        metrics.update(runs[0]["quality"])
    return metrics


def _trace(runner: Runner, jobs: int) -> dict:
    plain = runner.run("u0", jobs, traced=False)
    traced = plain and runner.run("t-default", jobs, traced=True)
    single = traced and runner.run("t-1job", 1, traced=True)
    if not single:
        return {}
    metrics = dict(traced["layers"])
    metrics["runner.parallel_speedup"] = single["run_s"] / traced["run_s"]
    metrics["runner.bundle_bytes"] = traced["bundle_bytes"]
    for layer, value in single["self_s"].items():
        metrics[f"{layer}.self_s"] = value
    metrics["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    print(f"spans: default {traced['spans']}, one job {single['spans']}; "
          f"written under {runner.work}", file=sys.stderr)
    return metrics


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kernels", action="store_true",
                        help="print the kernel report instead of running a workload")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="kernel report input size multiplier")
    args = parser.parse_args()
    if not (SRC / "heartlab" / "__init__.py").is_file():
        print(f"error: no heartlab source under {SRC}", file=sys.stderr)
        return 2
    if args.kernels:
        return subprocess.run([sys.executable, str(HERE / "kernels.py"), str(args.scale)],
                              env=_child_env(), cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    work = OUT / f"{args.workload}-{args.seed}"
    shutil.rmtree(ROOT / work, ignore_errors=True)
    (ROOT / work).mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, deadline)
    try:
        probe = runner.probe("warmup")
        jobs = min(len(os.sched_getaffinity(0)), probe["default_jobs"])
        print("environment: " + json.dumps(_environment(probe, jobs), sort_keys=True))
        runner.write_inputs()
        if args.trace:
            metrics = _trace(runner, jobs)
        else:
            metrics = _measure(runner, args.seconds, jobs)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if runner.first_digest:
        print(f"bundle sha256: {runner.first_digest} "
              f"(workload {args.workload}, seed {args.seed})")

    names = [m["name"] for m in declared]
    if runner.failed == 0 and sorted(metrics) != sorted(names):
        raise RuntimeError("measured metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(names))}")
    for m in declared:
        if m["name"] in metrics:
            print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"runs: {runner.attempted - runner.failed} ok, {runner.failed} failed")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
