"""Seeded end-to-end benchmark of netfold's `rank`, `count` and open-shell `enumerate`.

Usage, from the repository root:

    python3 perfbench/run.py --workload rank-closed --seed 1 --seconds 20 --trace 0

Workloads and their checks are defined in `workloads.py`.  The seed picks a
congruent relabelling of every catalog shell a workload uses (`shells.py`);
the program only sees the generated shell documents.

With `--trace 0` the workload's operations run as passes, each in a fresh
interpreter calling `netfold.cli.main`, until `--seconds` is used up (at
least one pass).  Reported: `wall_s`, the median over passes of the summed
command times; `setup_s`, the median start-up time of fresh interpreters
importing `netfold.cli`; `peak_rss_mib`, the largest peak resident set of a
workload process.

With `--trace 1` one untraced pass is followed by one traced pass, which
runs the same `netfold.cli.main` with a span around each call into a netfold
module (`child.py`); its files and printed lines must equal the untraced
ones.  The per-layer metrics come from those spans (`spans.py`), and the
details hold a span table per operation.

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  `attempted` counts the workload's operations, whatever
the number of passes; `failed` counts those that exited non-zero or failed
any check in any pass; `correct` is false when any exact result was wrong.  The
line before it holds the details: environment, per-operation records with
their backends and worker counts, and every sample taken.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from spans import UNITS, layer_metrics, span_table
from workloads import WORKERS, WORKLOADS, argv_for, check_op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


class Runner:
    """Spawns workload processes inside one scratch directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.spawned = 0

    def spawn(self, plan: dict) -> dict:
        self.spawned += 1
        n = self.spawned
        plan = dict(plan, result=f"result-{n}.json")
        plan_path = self.work / f"plan-{n}.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        log_path = self.work / f"log-{n}.txt"
        env = dict(os.environ)
        # Start-up is timed with cached bytecode, as an installed package has it;
        # the first workload process of a fresh checkout writes the cache.
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        with open(log_path, "w", encoding="utf-8") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), plan_path.name],
                cwd=self.work, stdout=log, stderr=subprocess.STDOUT, env=env,
            )
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError("a workload process ran past the run's time limit") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if rc != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"workload process exited with code {rc}:\n{tail}")
        report = json.loads((self.work / plan["result"]).read_text(encoding="utf-8"))
        report["setup_s"] = report["ready"] - start
        return report


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # an exported tree; don't pick up an enclosing repository
        return "unknown"
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def tree_digest(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        digests[path.relative_to(root).as_posix()] = h.hexdigest()
    return digests


def run_pass(runner: Runner, mode: str, plan_ops: list[dict], ops, docs: dict) -> tuple[dict, list[dict]]:
    """One workload process over every operation; each operation checked."""
    report = runner.spawn({"mode": mode, "ops": plan_ops})
    records = []
    for op, planned, rec in zip(ops, plan_ops, report["ops"]):
        verdict = check_op(op, docs[planned["input"]], rec, runner.work / planned["out"])
        records.append({
            "id": rec["id"], "mode": mode, "rc": rec["rc"], "seconds": rec["seconds"],
            "backends": rec["backends"], "workers": WORKERS, **verdict,
            "stdout": rec["stdout"],
        })
    return report, records


def measure_traced(runner: Runner, plan_ops, ops, docs, details: dict) -> tuple[dict, list[dict]]:
    """One untraced pass, then one traced pass; per-layer metrics."""
    work = runner.work
    ref, ref_records = run_pass(runner, "cli", plan_ops, ops, docs)
    (work / "out").mkdir(exist_ok=True)
    (work / "out").rename(work / "out-cli")
    traced, traced_records = run_pass(runner, "traced", plan_ops, ops, docs)
    cli_files, traced_files = tree_digest(work / "out-cli"), tree_digest(work / "out")
    for planned, a, b in zip(plan_ops, ref_records, traced_records):
        prefix = planned["out"].split("/", 1)[1] + "/"
        mine = {k: v for k, v in traced_files.items() if k.startswith(prefix)}
        theirs = {k: v for k, v in cli_files.items() if k.startswith(prefix)}
        if mine != theirs:
            b["exact"].append(f"traced files differ from the CLI's: {sorted(set(mine.items()) ^ set(theirs.items()))}")
        if a["stdout"] != b["stdout"]:
            b["exact"].append("traced output lines differ from the CLI's")
    values = layer_metrics(traced["trace"])
    values["setup.import_s"] = traced["import_s"]
    values["process.cpu_s"] = ref["cpu_s"]
    values["trace.overhead_s"] = sum(r["seconds"] for r in traced_records) - sum(r["seconds"] for r in ref_records)
    spans = traced["trace"]["spans"]
    details["spans"] = {p["id"]: span_table([s for s in spans if s[2] == p["id"]]) for p in plan_ops}
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}, ref_records + traced_records


def measure_untraced(runner: Runner, plan_ops, ops, docs, details: dict, setup: list[float],
                     seconds: float) -> tuple[dict, list[dict]]:
    """Untraced passes until `seconds` is used up (at least one); end-to-end metrics."""
    records: list[dict] = []
    walls, rss, cpu = [], [], []
    began = time.monotonic()
    while True:
        report, recs = run_pass(runner, "cli", plan_ops, ops, docs)
        shutil.rmtree(runner.work / "out", ignore_errors=True)
        records += recs
        walls.append(sum(r["seconds"] for r in recs))
        rss.append(report["maxrss_kib"] / 1024.0)
        cpu.append(report["cpu_s"])
        setup.append(report["setup_s"])
        elapsed = time.monotonic() - began
        per_pass = elapsed / len(walls)
        if elapsed + per_pass > seconds or time.monotonic() + 1.5 * per_pass > runner.deadline:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.spawn({"mode": "setup"})["setup_s"])
    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup), "peak_rss_mib": max(rss)}
    details.update(walls_s=walls, cpu_s=cpu, setup_samples_s=setup, peak_rss_samples_mib=rss)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}, records


def run(args: argparse.Namespace, work: Path) -> tuple[dict, dict]:
    ops = WORKLOADS[args.workload]
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    inputs = {f"inputs/{op.input_name}.json": op for op in ops}
    first = runner.spawn({
        "mode": "setup", "seed": args.seed,
        "generate": [{"shell": op.shell, "hole": op.hole, "path": path} for path, op in inputs.items()],
    })
    setup = [first["setup_s"]]
    docs = {path: json.loads((work / path).read_text(encoding="utf-8")) for path in inputs}
    plan_ops = []
    for k, op in enumerate(ops):
        path = f"inputs/{op.input_name}.json"
        out = f"out/{k}-{op.command}"
        plan_ops.append({
            "id": f"{k}-{op.command}-{op.input_name}", "input": path, "out": out,
            "argv": argv_for(op, first["inputs"][path], path, out),
        })
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "numba_imports": first["numba_imports"], "workers": WORKERS, "commit": git_commit(),
        },
        "argv": {p["id"]: p["argv"] for p in plan_ops},
    }
    if args.trace:
        metrics, records = measure_traced(runner, plan_ops, ops, docs, details)
    else:
        metrics, records = measure_untraced(runner, plan_ops, ops, docs, details, setup, args.seconds)

    for r in records:
        del r["stdout"]
    details["ops"] = records
    return details, {**tally(records, len(plan_ops)), "metrics": metrics}


def tally(records: list[dict], n_ops: int) -> dict:
    """correct, attempted and failed over every checked record of a run.

    An operation is one command on one generated shell; its repetitions in
    further passes are timing samples of the same operation, and it fails if
    any repetition fails.  So attempted and failed do not depend on how many
    passes fit in the run.
    """
    failed = {r["id"] for r in records if r["exact"] or r["screen"]}
    return {"correct": not any(r["exact"] for r in records), "attempted": n_ops, "failed": len(failed)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its workload process (see Runner.spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "netfold" / "cli.py").is_file():
        print(f"netfold sources not found under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        details, result = run(args, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
