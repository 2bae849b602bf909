"""Workload process: one fresh interpreter that runs a pass of CLI operations.

Usage: python3 perfbench/child.py PLAN.json

The plan names a mode and the operations (CLI argument lists) to run, one at
a time, from the plan's directory, each through `netfold.cli.main`:

- "setup": import `netfold.cli` and exit; only start-up is measured.
- "cli": run each operation with only the search entry points wrapped, to
  read the backend each search used.
- "traced": run each operation with a span around every call `cli.py` makes
  into a netfold module, and around the per-class unfold, R_g and overlap
  calls inside `geometry.rank_nets`.

The process writes a JSON report to the plan's "result" path.  Its first
field, "ready", is the CLOCK_MONOTONIC time at which `netfold.cli` finished
importing; the parent subtracts its own spawn time to get start-up time.
"""

import sys
import time

_t0 = time.perf_counter()
import netfold.cli as cli  # noqa: E402  (start-up is what is being timed)

READY = time.monotonic()
IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Optional  # noqa: E402

import netfold.geometry as geometry  # noqa: E402
import netfold.io as nio  # noqa: E402

from spans import Tracer  # noqa: E402

SEARCHES = ("enumerate_mlsts", "enumerate_interiors", "enumerate_hole_cuts")
# Called once per class by `geometry.rank_nets`, through the module's globals.
PER_NET = ("unfold", "centroid_and_rg", "check_overlap")


def observe(tr: Tracer, span: str, fn, result, args, kwargs) -> None:
    """Record the counters one call's arguments and return value give."""
    if fn.__name__ in SEARCHES:
        layer = span.split(".", 1)[0]
        tr.count(f"{layer}.nodes", result.nodes_visited)
        if layer == "mlst":
            tr.count("mlst.interiors", result.interior_count)
            tr.count("mlst.last_level_nodes", result.level_reports[-1].nodes if result.level_reports else 0)
        if span != "mlst.enumerate_interiors":
            tr.count(f"{layer}.cuts", len(result.cuts))
    elif span == "mlst.count_labeled_cuts":
        tr.count("mlst.cuts", result)
    elif span == "symmetry.find_automorphisms":
        tr.count("symmetry.group_order", result.order)
    elif span == "symmetry.dedupe_cuts":
        tr.count("symmetry.classes", len(result))
    elif span == "symmetry.count_net_classes":
        tr.count("symmetry.classes", result)
    elif span == "geometry.rank_nets":
        tr.count("geometry.nets", len(result))
        tr.count("geometry.overlap_flagged", sum(bool(net.overlapping) for net in result))
    elif span.startswith("io.write_") or span == "svg.export_svg":
        path = inspect.signature(fn).bind(*args, **kwargs).arguments.get("path")
        if path is not None:
            tr.count("io.bytes_written", Path(path).stat().st_size)


def _wrap(namespace, name: str, backends: list, tracer: Optional[Tracer]) -> None:
    fn = getattr(namespace, name)
    span = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"
    search = name in SEARCHES

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        if tracer is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(span):
                result = fn(*args, **kwargs)
            observe(tracer, span, fn, result, args, kwargs)
        if search:
            backends.append(getattr(result, "backend", "unknown"))
        return result

    setattr(namespace, name, wrapped)


def instrument(backends: list, tracer: Optional[Tracer] = None) -> None:
    """Wrap, where `cli.py` and `rank_nets` look them up, the functions they call.

    Without a tracer only the search entry points are wrapped, to record the
    backend of each search result.  With one, every netfold function imported
    into `cli`, the loaders and writers of `netfold.io` that `cli` calls as
    `nio.<name>`, and the per-net functions `rank_nets` calls are wrapped in
    spans named `<module>.<function>`.  The program runs its own code paths;
    the spans follow whatever it calls.
    """
    if tracer is None:
        for name in SEARCHES:
            if hasattr(cli, name):
                _wrap(cli, name, backends, None)
        return
    for name, fn in list(vars(cli).items()):
        if inspect.isfunction(fn) and fn.__module__.startswith("netfold.") and fn.__module__ != cli.__name__:
            _wrap(cli, name, backends, tracer)
    for name, fn in list(vars(nio).items()):
        if inspect.isfunction(fn) and name.startswith(("load_", "write_")):
            _wrap(nio, name, backends, tracer)
    for name in PER_NET:
        _wrap(geometry, name, backends, tracer)


def generate(seed: int, wanted: list[dict]) -> dict:
    """Write the seeded relabelling of each wanted catalog shell.

    Returns, per input path, the generated index of the face to remove.
    """
    from netfold import builtin
    from shells import relabel

    holes = {}
    for item in wanted:
        spec = builtin(item["shell"])
        shell = relabel(item["shell"], spec.vertices, spec.faces, seed, item["hole"])
        path = Path(item["path"])
        path.parent.mkdir(parents=True, exist_ok=True)
        shell.write(path)
        holes[item["path"]] = shell.hole
    return holes


def numba_imports() -> bool:
    try:
        import numba  # noqa: F401
    except ImportError:
        return False
    return True


def run_op(call, argv: list[str]) -> dict:
    """Run one operation with stdout captured; time it; never raise."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = call(argv)
    except Exception:  # an operation that crashes is a failed operation
        rc = -1
        error = traceback.format_exc()
    return {"rc": rc, "seconds": time.perf_counter() - start, "stdout": buf.getvalue(), "error": error}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    report = {"ready": READY, "import_s": IMPORT_S, "ops": []}
    mode = plan["mode"]
    if mode == "setup" and plan.get("generate"):
        report["inputs"] = generate(plan["seed"], plan["generate"])
        report["numba_imports"] = numba_imports()
    elif mode in ("cli", "traced"):
        backends: list[str] = []
        tracer = Tracer() if mode == "traced" else None
        instrument(backends, tracer)
        call = cli.main
        if tracer is not None:
            def call(argv):
                with tracer.span(f"cli.{argv[0]}"):
                    return cli.main(argv)
        for op in plan["ops"]:
            backends.clear()
            if tracer is not None:
                tracer.op = op["id"]
            record = run_op(call, op["argv"])
            record.update(id=op["id"], backends=list(backends))
            report["ops"].append(record)
        if tracer is not None:
            report["trace"] = tracer.dump()
    self_use = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    report["maxrss_kib"] = self_use.ru_maxrss + children.ru_maxrss
    report["cpu_s"] = sum(os.times()[:4])
    Path(plan["result"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
