#!/usr/bin/env python3
"""End-to-end benchmark of ``repro-adc campaign``, timed from outside.

    python3 perfbench/run.py --workload paper13_cold --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each campaign executes as a fresh child
process with the CLI's default knobs (serial backend, transient verifier
on, telemetry ``metrics``) and BLAS pinned to one thread; stores and caches
live in a scratch directory under ``.perfbench_tmp/`` that is removed on
exit.  The child imports ``repro`` from ``src/``, so the benchmark refuses
to run (exit 2) in a tree without it.

``--trace 0`` repeats the workload's campaign until ``--seconds`` have
passed and reports the end-to-end metrics: medians over the campaigns of
the run, set-up time over every child plus a few import-only probes.
``--trace 1`` instead alternates an untraced campaign with one run under
the per-layer tracer (``layers.py``) and reports the per-layer metrics.

Every campaign's outputs are checked (exit code, one record per scenario,
``results.jsonl`` byte-identical across the run, the paper's winners);
a failed check prints the result with ``"correct": false`` and exits 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"
SCRATCH = ROOT / ".perfbench_tmp"

#: Import-only children per ``--trace 0`` run, for a steady ``setup_s``.
SETUP_PROBES = 5
#: A child still running after this long is killed and the run fails.
CHILD_TIMEOUT_S = 150.0
#: No campaign starts once the run has used this much time, so the whole
#: run ends well inside its 180 s limit.
START_BUDGET_S = 120.0

BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}

#: Record fields that count cache traffic: a warm rerun differs from a cold
#: run only in these.
CACHE_FIELDS = (
    "cold_runs",
    "retargeted_runs",
    "persistent_hits",
    "shared_hits",
    "pool_warm_starts",
    "pool_escalations",
)

PAPER13 = ("--bits", "13", "--rates", "40", "--modes", "analytic,synthesis,behavioral")
#: Layer groups a synthesis-free campaign must reach.
CAMPAIGN_LAYERS = ("optimize_topology", "candidate_power", "verify", "store_io")


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``repro-adc`` arguments, without ``--seed``, ``--out`` and ``--cache-dir``.
    args: tuple[str, ...]
    scenarios: int
    #: "none", "fresh" (an empty cache per campaign) or "warm" (one cache
    #: filled by an untimed cold campaign during set-up).
    cache: str
    #: Scenario label -> the winner the paper reports (Fig. 2, 40 MSPS).
    winners: dict[str, str]
    #: Layer groups the traced run must see called at least once.
    expect_calls: tuple[str, ...]
    draws: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper13_cold",
            args=PAPER13,
            scenarios=3,
            cache="fresh",
            winners={"k13_40M_analytic": "4-3-2"},
            expect_calls=tuple(layers.TARGETS),
        ),
        Workload(
            name="mc_sweep",
            args=(
                "--bits", "10-14", "--rates", "20,40,80",
                "--modes", "analytic,behavioral", "--behavioral-draws", "512",
            ),
            scenarios=30,
            cache="none",
            winners={
                "k10_40M_analytic": "3-2",
                "k11_40M_analytic": "4-2",
                "k12_40M_analytic": "4-2-2",
                "k13_40M_analytic": "4-3-2",
            },
            expect_calls=CAMPAIGN_LAYERS,
            draws=512,
        ),
        Workload(
            name="warm_rerun",
            args=PAPER13,
            scenarios=3,
            cache="warm",
            winners={"k13_40M_analytic": "4-3-2"},
            expect_calls=CAMPAIGN_LAYERS
            + ("plan_synthesis", "execute_plan", "persist_load"),
        ),
    )
}


class CheckFailed(Exception):
    """An output check failed; the message says which and where."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    marks: dict


@dataclass
class Run:
    """State shared by every campaign of one benchmark run."""

    workload: Workload
    seed: int
    tmp: Path
    env: dict
    counter: itertools.count = field(default_factory=itertools.count)
    campaigns: int = 0
    digest: str | None = None
    #: Digest of the records without cache-traffic fields.
    result_digest: str | None = None
    records: list[dict] | None = None
    setups: list[float] = field(default_factory=list)
    versions: dict = field(default_factory=dict)

    def spawn(self, command: list[str], traced: bool = False) -> Child:
        """Run one child to exit and measure it from outside."""
        n = next(self.counter)
        marks_path = self.tmp / f"marks-{n}.json"
        log_path = self.tmp / f"child-{n}.log"
        argv = [sys.executable, str(LAUNCH), str(marks_path)]
        if traced:
            argv.append("--layers")
        if command:
            argv += ["--", *command]
        with open(log_path, "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            raise CheckFailed(
                f"child exited {proc.returncode}: {' '.join(command) or 'import probe'}"
                f"\n{tail}"
            )
        marks = json.loads(marks_path.read_text())
        self.setups.append(marks["imported"] - start)
        self.versions = {"python": marks["python"], "numpy": marks["numpy"]}
        return Child(end - start, usage.ru_maxrss / 1024.0, marks)

    def campaign(
        self, cache_dir: Path | None = None, traced: bool = False, populate: bool = False
    ) -> Child:
        """One checked campaign into a fresh store."""
        w = self.workload
        self.campaigns += 1
        n = next(self.counter)
        out = self.tmp / f"store-{n}"
        command = ["campaign", *w.args, "--seed", str(self.seed), "--out", str(out)]
        if w.cache == "fresh":
            cache_dir = self.tmp / f"cache-{n}"
        if cache_dir is not None:
            command += ["--cache-dir", str(cache_dir)]
        child = self.spawn(command, traced)
        try:
            self.check(out, populate)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"{w.name} seed {self.seed}: malformed store: {exc!r}") from exc
        shutil.rmtree(out)
        if w.cache == "fresh":
            shutil.rmtree(cache_dir)
        return child

    def check(self, out: Path, populate: bool) -> None:
        """Output checks of one campaign store."""
        w = self.workload
        data = (out / "results.jsonl").read_bytes()
        records = [json.loads(line) for line in data.splitlines()]
        where = f"{w.name} seed {self.seed}, {out.name}"
        if [r["index"] for r in records] != list(range(w.scenarios)):
            raise CheckFailed(f"{where}: expected {w.scenarios} records, got {len(records)}")
        digest = hashlib.sha256(data).hexdigest()
        stripped = [
            {k: v for k, v in r.items() if k not in CACHE_FIELDS} for r in records
        ]
        result_digest = hashlib.sha256(
            json.dumps(stripped, sort_keys=True).encode()
        ).hexdigest()
        if self.result_digest is None:
            self.result_digest = result_digest
        elif result_digest != self.result_digest:
            raise CheckFailed(f"{where}: results differ from the run's first campaign")
        # The warm workload's set-up campaign fills the cache: its records
        # count cache misses where the timed ones count hits.
        if not populate:
            if self.digest is None:
                self.digest = digest
            elif digest != self.digest:
                raise CheckFailed(f"{where}: results.jsonl is not byte-identical")
        if w.cache == "warm" and not populate:
            for r in records:
                if r["cold_runs"] or r["retargeted_runs"]:
                    raise CheckFailed(f"{where}: {r['label']} synthesized on a warm cache")
        by_label = {r["label"]: r for r in records}
        for label, winner in w.winners.items():
            if by_label[label]["winner"] != winner:
                raise CheckFailed(
                    f"{where}: {label} winner {by_label[label]['winner']}, paper {winner}"
                )
        for r in records:
            b = r["behavioral"]
            if b is None:
                continue
            if b["seed"] != self.seed or (w.draws and b["draws"] != w.draws):
                raise CheckFailed(f"{where}: {r['label']} ran draws/seed {b['draws']}/{b['seed']}")
            source = by_label[r["label"].replace("_behavioral", "_" + b["winner_source"])]
            if source["winner"] != r["winner"]:
                raise CheckFailed(f"{where}: {r['label']} verified a topology its source did not pick")
        self.records = records

    def prepare_cache(self) -> Path | None:
        """Set-up: fill the warm workload's cache with an untimed cold run."""
        if self.workload.cache != "warm":
            return None
        cache_dir = self.tmp / "cache-warm"
        self.campaign(cache_dir, populate=True)
        return cache_dir


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def quality_metrics(records: list[dict]) -> dict[str, tuple[float, str]]:
    feasible = sum(bool(r["all_feasible"]) for r in records)
    return {
        "feasible_share": (feasible / len(records), "ratio"),
        "winner_power_mw": (sum(r["rankings"][0][1] for r in records) * 1e3, "mW"),
        "enob_min": (
            min(r["behavioral"]["enob_min"] for r in records if r["behavioral"]),
            "bit",
        ),
    }


def measure_end_to_end(run: Run, seconds: int, started: float) -> dict:
    for _ in range(SETUP_PROBES):
        run.spawn([])
    cache_dir = run.prepare_cache()
    children: list[Child] = []
    deadline = time.monotonic() + seconds
    while True:
        children.append(run.campaign(cache_dir))
        now = time.monotonic()
        if now >= deadline or now - started + children[-1].wall_s > START_BUDGET_S:
            break
    walls = [c.wall_s for c in children]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in children), "MB"),
        **quality_metrics(run.records),
    }
    print(
        f"  {len(children)} campaigns: wall_s min {min(walls):.4f} max {max(walls):.4f}; "
        f"setup_s over {len(run.setups)} children; failed_share "
        f"{1 - metrics['feasible_share'][0]:.4f} of {run.workload.scenarios} scenarios"
    )
    return metrics


def measure_layers(run: Run, seconds: int, started: float) -> dict:
    cache_dir = run.prepare_cache()
    plain: list[float] = []
    traced: list[dict[str, tuple[float, str]]] = []
    traced_walls: list[float] = []
    deadline = time.monotonic() + seconds
    while True:
        base = run.campaign(cache_dir).marks
        plain.append(base["main_end"] - base["main_start"])
        marks = run.campaign(cache_dir, traced=True).marks
        wall = marks["main_end"] - marks["main_start"]
        traced_walls.append(wall)
        snap = marks["layers"]
        silent = [g for g in run.workload.expect_calls if not snap["layers"][g]["calls"]]
        if silent:
            raise CheckFailed(
                f"traced layers never called: {', '.join(silent)} "
                "(rebound or renamed? update perfbench/layers.py)"
            )
        traced.append(layers.layer_metrics(snap))
        now = time.monotonic()
        if now >= deadline or now - started + 2 * wall > START_BUDGET_S:
            break
    metrics = {
        name: (statistics.median(t[name][0] for t in traced), unit)
        for name, (_, unit) in traced[0].items()
    }
    metrics["trace.overhead_share"] = (
        statistics.median(traced_walls) / statistics.median(plain) - 1.0,
        "ratio",
    )
    print(f"  {len(traced)} traced + {len(plain)} untraced campaigns")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    run = Run(WORKLOADS[args.workload], args.seed, tmp, child_env(tmp))
    measure = measure_layers if args.trace else measure_end_to_end
    print(
        f"perfbench: workload {args.workload} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace}; nproc {len(os.sched_getaffinity(0))}, "
        + ", ".join(f"{k}={v}" for k, v in BLAS_ENV.items())
    )
    correct = True
    try:
        metrics = measure(run, args.seconds, started)
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run's scratch directory is still there
    print(f"  python {run.versions.get('python')}, numpy {run.versions.get('numpy')}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(run.campaigns, 1),
                "failed": 0 if correct else 1,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
