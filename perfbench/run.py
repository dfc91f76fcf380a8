#!/usr/bin/env python3
"""cutproject benchmark: per-command latency on seeded workloads, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload fib-strip --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

One run drives one workload in this process: a closed loop with one client
that calls ``cutproject.cli.main`` (and, for ``quadrature``, the library
sequence of scripts/margin_sweep.py), one call of every op kind per round,
until ``--seconds`` have passed.  Every call's output is checked.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``--all`` runs every workload, each
in its own process, and prints one table.  NOTES.md explains the workloads
and the metrics.
"""

import os

# Single-threaded BLAS, set before numpy loads: with diffract --threads 2 the
# load then uses at most two threads in all.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Stopwatch, Tracer  # noqa: E402
from workloads import ALL_KINDS, KNOWN, OK, WORKLOADS, Inputs, load_pool  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 7
# what an untraced run prints, and ``--all`` tabulates, for every workload
REPORT = [(f"{k}_s", "s") for k in ALL_KINDS] + [
    ("fail_frac", "ratio"), ("workflow_s", "s"), ("workflow_rel", "ratio"), ("peak_rss_mb", "MiB"),
    ("setup_s", "s")]

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import cutproject
from cutproject.cli import load_config
load_config(sys.argv[1])
print(time.perf_counter() - start)
"""


def import_cutproject():
    """The cli module of the checkout's own sources, never an installed copy."""
    if not (SRC / "cutproject" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no cutproject sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cutproject.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        raise SystemExit(f"benchmark: imported cutproject from {cli.__file__}, not from {SRC}")
    return cli


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(config: Path, importtime: bool) -> tuple[list[float], dict]:
    """Fresh interpreters timing ``import cutproject`` plus ``load_config``.

    With ``importtime`` the interpreters run under ``-X importtime`` and the
    cumulative import times of cutproject and scipy.spatial are collected.
    """
    times, imports = [], {"cutproject": [], "scipy.spatial": []}
    flags = ["-X", "importtime"] if importtime else []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, *flags, "-c", SETUP_CODE, str(config)],
                              capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                              timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in imports:
                imports[parts[2].strip()].append(float(parts[1]) * 1e-6)
    return times, imports


class Calibration:
    """A fixed workload that does not touch cutproject: numpy sort, exp and a
    matrix product, and tuple-keyed dict building and lookups in pure Python,
    in about equal shares, about 40 ms in all.

    It is timed between every two timed calls.  Its median and range show
    whether a run was taken in a slow episode of the machine, and each call's
    time divided by the median of the eight samples around it is that call's
    time in calibration units (``workflow_rel``).
    """

    def __init__(self) -> None:
        self.a = np.random.default_rng(0).standard_normal(1 << 19)
        self.b = self.a.reshape(512, 1024)
        self.samples: list[float] = []

    def sample(self) -> float:
        start = perf_counter()
        for _ in range(4):
            np.sort(self.a)
            np.exp(self.a).sum()
            (self.b[:256] @ self.b[:256].T).sum()
        table = {(i, -i): i for i in range(40_000)}
        sum(table.get((i, -i), 0) for i in range(80_000))
        self.samples.append(perf_counter() - start)
        return self.samples[-1]


class Run:
    """Calls, verdicts and timings of one workload run."""

    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.workdir = workdir
        self.calibration = Calibration()
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {}  # kind -> seconds of timed, passing calls
        self.placed: dict[str, list[tuple[float, int]]] = {}  # kind -> (seconds, sample index)
        self.verdicts: dict[str, dict[str, int]] = {}

    def call(self, kind, call, digest, clock, timed: bool):
        """Run and check one call; returns its outcome and whether it passed."""
        gc.collect()
        outcome = call.run(self.cli, self.workdir, clock)
        verdict = kind.check(call, outcome, digest)
        self.attempted += 1
        tally = self.verdicts.setdefault(kind.name, {OK: 0, KNOWN: 0, "failed": 0})
        if verdict in (OK, KNOWN):
            tally[verdict] += 1
            if timed:
                self.times.setdefault(kind.name, []).append(outcome.seconds)
                self.times.setdefault(kind.name + ":" + verdict, []).append(outcome.seconds)
        else:
            tally["failed"] += 1
            self.failures.append(f"{kind.name} {call.params}: {verdict}")
        return outcome, verdict in (OK, KNOWN)

    def rounds(self, inputs: Inputs, seconds: float, clock) -> tuple[list, float]:
        """Whole rounds until ``seconds`` have passed.

        Returns the calls made, as (kind, call, digest, output fingerprint),
        and their total wall time.
        """
        made, busy = [], 0.0
        start = perf_counter()
        self.calibration.sample()
        while perf_counter() - start < seconds:
            for kind, call, digest in inputs.next_round():
                outcome, passed = self.call(kind, call, digest, clock, timed=True)
                made.append((kind, call, digest, outcome.fingerprint()))
                busy += outcome.seconds
                if passed:
                    where = len(self.calibration.samples)  # index of the sample after the call
                    self.placed.setdefault(kind.name, []).append((outcome.seconds, where))
                self.calibration.sample()
        return made, busy

    def relative(self, kind: str) -> list[float]:
        """The kind's timed, passing calls in units of the calibration around each."""
        samples = self.calibration.samples
        return [seconds / statistics.median(samples[max(where - 4, 0) : where + 4])
                for seconds, where in self.placed[kind]]


def end_to_end(run: Run, inputs: Inputs, seconds: float, setup_times) -> tuple[dict, dict]:
    """The untraced run: gated metrics, and the per-kind report printed beside them."""
    run.rounds(inputs, seconds, Stopwatch())
    detail = {}
    for name in ALL_KINDS:
        ok = run.times.get(name + ":" + OK, [])
        detail[name + "_s"] = statistics.median(ok) if ok else None
        detail[name + "_n"] = len(ok)
    failed = sum(v["failed"] + v[KNOWN] for v in run.verdicts.values())
    detail["fail_frac"] = failed / max(run.attempted, 1)
    # one pass of the workload's commands: calls that ended at the recorded
    # defect still took the user's time, so they count here
    kinds = [k.name for k in inputs.workload.kinds if k.name in run.times]
    workflow = sum(statistics.median(run.times[k]) for k in kinds)
    detail["workflow_s"] = workflow
    metrics = {
        # the same in calibration units, call by call, which cancels most of
        # the machine's drift in speed (see NOTES.md, "Steadiness")
        "workflow_rel": (sum(statistics.median(run.relative(k)) for k in kinds), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    detail.update({k: v for k, (v, _) in metrics.items()})
    return metrics, detail


def per_layer(run: Run, inputs: Inputs, seconds: float, import_times, dump: Path):
    """The traced run: untraced rounds for half the time, then the same calls traced.

    Returns the per-layer metrics and a list of problems (outputs that differ
    between the two halves, span self times that do not add up).
    """
    made, untraced = run.rounds(inputs, seconds / 2, Stopwatch())
    tracer = Tracer()
    tracer.install()
    try:
        replay = [run.call(kind, call, digest, tracer, timed=False)[0]
                  for kind, call, digest, _ in made]
    finally:
        tracer.uninstall()
    problems = []
    if [o.fingerprint() for o in replay] != [m[3] for m in made]:
        problems.append("traced outputs differ from untraced outputs")
    bad = tracer.check_self_times()
    if bad:
        problems.append(bad)
    n_rounds = len(made) // len(inputs.workload.kinds)
    bytes_out = sum(len(o.stdout) + sum(len(b) for b in o.files.values()) for o in replay)
    metrics = tracer.layer_metrics(n_rounds, bytes_out)
    metrics["import.cutproject_s"] = (statistics.median(import_times["cutproject"]), "s")
    metrics["import.scipy_spatial_s"] = (statistics.median(import_times["scipy.spatial"]), "s")
    metrics["trace.overhead_frac"] = (tracer.op_seconds / untraced - 1.0, "ratio")
    dump.write_text(json.dumps(tracer.dump()))
    return metrics, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    cli = import_cutproject()
    pool = load_pool()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        config = workdir / "setup.toml"
        config.write_text(workload.scheme)
        setup_times, import_times = measure_setup(config, importtime=trace)
        run = Run(cli, workdir)
        inputs = Inputs(workload, seed, pool)
        # warm-up round: checked and counted, not timed
        for kind, call, digest in inputs.next_round():
            run.call(kind, call, digest, Stopwatch(), timed=False)
        if trace:
            dump = OUT / f"trace-{name}-seed{seed}.json"
            metrics, problems = per_layer(run, inputs, seconds, import_times, dump)
        else:
            metrics, detail = end_to_end(run, inputs, seconds, setup_times)
            problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    calib = run.calibration.samples
    print(f"# workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"# env: nproc {len(os.sched_getaffinity(0))}, numpy {np.__version__}, "
          f"scipy {scipy.__version__}, python {sys.version.split()[0]}, "
          f"calibration_s {statistics.median(calib):.6f} (min {min(calib):.6f}, "
          f"max {max(calib):.6f}, n {len(calib)})")
    print("# setup interpreters (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    for kind in workload.kinds:
        tally = run.verdicts.get(kind.name, {})
        samples = run.times.get(kind.name, [])
        median = f"{statistics.median(samples):.6f} s" if samples else "null"
        print(f"# {kind.name:<14} median {median:<12} n {len(samples):<3} "
              f"ok {tally.get(OK, 0):<3} known-defect {tally.get(KNOWN, 0):<3} "
              f"failed {tally.get('failed', 0)}")
    for failure in run.failures[:20]:
        print(f"# FAILED {failure}")
    for problem in problems:
        print(f"# PROBLEM {problem}")
    if not trace:
        detail["calibration_s"] = statistics.median(calib)
        for key, unit in REPORT:
            value = detail[key]
            shown = "null" if value is None else f"{value:.6g} {unit}"
            n = f" (n={detail[key[:-2] + '_n']})" if key[:-2] in ALL_KINDS else ""
            print(f"# {key} {shown}{n}")
        print("# detail " + json.dumps(detail))
    result = {
        "correct": not run.failures and not problems,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process; one table of the per-kind metrics."""
    rows = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        detail = [ln for ln in proc.stdout.splitlines() if ln.startswith("# detail ")]
        rows[name] = json.loads(detail[-1][len("# detail "):])
    print(f"{'metric':<20}{'unit':<7}" + "".join(f"{name:>14}" for name in rows))
    for key, unit in REPORT:
        cells = "".join(f"{'null' if r[key] is None else format(r[key], '.4g'):>14}"
                        for r in rows.values())
        print(f"{key:<20}{unit:<7}{cells}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, print one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
