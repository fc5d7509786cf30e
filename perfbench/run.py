#!/usr/bin/env python3
"""Benchmark of `ckflow run`: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload flat_l4 --seed 1 --seconds 35 --trace 0

Each operation is one `ckflow.cli.main(["run", ...])` call in this process,
with BLAS and OpenMP pinned to one thread.  Every operation's output is
checked (STATUS line, volume drift, area monotonicity, verdict, trace.csv
repeatability).  Stdout carries one line per operation, the environment,
and as its last line one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`.  `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones from a separate traced operation.  See
README.md for the workloads and for what each metric means.
"""

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import COMPOSITE, ROOT as ROOT_SPAN, Tracer, span_names
from workloads import WARMUP_STEPS, WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
MODULES = ("ambient", "ckv", "cli", "diagnostics", "flow", "surface")

SETUP_REPEATS = 4          # set-up-only calls before and again after the rounds
VOLUME_DRIFT_MAX = 5e-3    # relative to the first trace row
CSV_ROUNDING = 1e-8        # two roundings to the 9 significant digits of trace.csv

END_TO_END = {"run_s": "s", "setup_s": "s", "pass_share": "ratio",
              "peak_rss_mb": "MB"}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        if name == ROOT_SPAN:
            units["cli.self_s"] = "s"
            continue
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in COMPOSITE:
            units[f"{name}.total_s"] = "s"
        if name == "surface.mesh_geometry":
            units[f"{name}.curv.calls"] = "count"
            units[f"{name}.nocurv.calls"] = "count"
    units.update({
        "flow.steps": "count",
        "flow.attempts": "count",
        "flow.accept_ratio": "ratio",
        "flow.ms_per_step": "ms",
        "flow.volume_evals_per_projection": "count",
        "trace.overhead_share": "ratio",
    })
    return units


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, wrong import)."""


class SetupDone(Exception):
    """Raised at the entry of the flow to end a set-up-only call."""


def pin_threads():
    """Pin BLAS and OpenMP to one thread; must precede the numpy import."""
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned and "numpy" in sys.modules:
        raise SetupError("numpy was imported before thread counts were pinned")
    for var in unpinned:
        os.environ[var] = "1"


def import_ckflow(repo=REPO):
    """Import ckflow from the checkout's own src/, never from elsewhere."""
    pkg = repo / "src" / "ckflow"
    if not (pkg / "cli.py").is_file():
        raise SetupError(f"no ckflow sources at {pkg}")
    if str(pkg.parent) not in sys.path:
        sys.path.insert(0, str(pkg.parent))
    mods = {m: importlib.import_module(f"ckflow.{m}") for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != pkg.resolve():
        raise SetupError(f"ckflow imported from {mods['cli'].__file__}")
    return SimpleNamespace(**mods)


def source_sha256(repo=REPO):
    digest = hashlib.sha256()
    for path in sorted((repo / "src" / "ckflow").rglob("*.py")):
        digest.update(path.relative_to(repo).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(repo=REPO):
    """HEAD of the checkout's git repository, or None outside one."""
    git = repo / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "src_sha256": source_sha256(),
    }


@contextlib.contextmanager
def flow_clock(flow, stop_at_entry=False):
    """Time the entry to and return from flow.run / flow.run_graph."""
    marks = {}
    originals = {name: getattr(flow, name) for name in ("run", "run_graph")}

    def clocked(original):
        def wrapper(*args, **kwargs):
            marks["enter"] = perf_counter()
            if stop_at_entry:
                raise SetupDone
            try:
                return original(*args, **kwargs)
            finally:
                marks["exit"] = perf_counter()
        return wrapper

    for name, original in originals.items():
        setattr(flow, name, clocked(original))
    try:
        yield marks
    finally:
        for name, original in originals.items():
            setattr(flow, name, original)


@dataclass
class OpResult:
    name: str
    timed: bool
    code: int = None
    status: str = None
    run_s: float = None
    setup_s: float = None
    flow_s: float = None
    steps: int = None
    trace_sha256: str = None
    error: str = None
    failures: list = field(default_factory=list)

    def line(self):
        def num(x):
            return "-" if x is None else f"{x:.4f}"
        verdict = "pass" if not self.failures else \
            "FAIL: " + "; ".join(self.failures)
        text = (f"op {self.name} status={self.status} code={self.code} "
                f"steps={self.steps} run_s={num(self.run_s)} "
                f"setup_s={num(self.setup_s)} "
                f"trace_sha256={self.trace_sha256} {verdict}")
        if self.failures and self.error:
            text += f" | error: {self.error}"
        return text


def _last_status(stderr):
    status, error = None, None
    for line in stderr.splitlines():
        if line.startswith("STATUS="):
            status = line[len("STATUS="):].strip()
        elif line.strip():
            error = line.strip()
    return status, error


def _read_verdict(path):
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


class Runner:
    """Invokes `ckflow run` for operations and checks their outputs."""

    def __init__(self, ck, workdir):
        self.ck = ck
        self.workdir = workdir
        self.area_slack = ck.flow.StepControl().area_slack
        self._count = 0

    def _invoke(self, op, stop_at_flow=False, tracer=None):
        self._count += 1
        out = self.workdir / f"{self._count:03d}-{op.name}"
        cfg = out.with_suffix(".cfg")
        cfg.write_text(op.run_file())
        argv = ["run", "--config", str(cfg), "--out", str(out), "--quiet"]
        main = self.ck.cli.main
        stderr = io.StringIO()
        code = None
        gc.collect()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr), \
                flow_clock(self.ck.flow, stop_at_flow) as marks:
            t0 = perf_counter()
            try:
                code = tracer.call(ROOT_SPAN, main, argv) if tracer \
                    else main(argv)
            except SetupDone:
                pass
            except Exception as exc:  # an escaped program error fails the op
                print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            t1 = perf_counter()
        return code, stderr.getvalue(), out, t0, t1, marks

    def setup_time(self, op):
        """Seconds from cli.main entry to the flow call, flow not run."""
        _, stderr, _, t0, _, marks = self._invoke(op, stop_at_flow=True)
        if "enter" not in marks:
            raise SetupError(f"{op.name}: set-up never reached the flow: "
                             f"{stderr.strip()}")
        return marks["enter"] - t0

    def warm_up(self, op):
        self._invoke(op)

    def run(self, op, timed, tracer=None):
        code, stderr, out, t0, t1, marks = self._invoke(op, tracer=tracer)
        res = OpResult(op.name, timed, code=code, run_s=t1 - t0)
        if "enter" in marks:
            res.setup_s = marks["enter"] - t0
        if "exit" in marks:
            res.flow_s = marks["exit"] - marks["enter"]
        res.status, res.error = _last_status(stderr)
        self._check(op, res, out)
        return res

    def _check(self, op, res, out):
        fail = res.failures.append
        if res.status != op.expected_status:
            fail(f"STATUS={res.status}, expected {op.expected_status}")
        elif res.code != self.ck.cli.STATUS_CODE[res.status]:
            fail(f"exit code {res.code} does not match STATUS={res.status}")
        trace = out / "trace.csv"
        rows = []
        if trace.is_file():
            data = trace.read_bytes()
            res.trace_sha256 = hashlib.sha256(data).hexdigest()
            rows = list(csv.DictReader(io.StringIO(data.decode())))
        if not rows:
            fail("no trace.csv rows")
        else:
            res.steps = int(rows[-1]["step"])
            vol = [float(r["volume"]) for r in rows]
            area = [float(r["area"]) for r in rows]
            drift = max(abs(v / vol[0] - 1.0) for v in vol)
            if drift > VOLUME_DRIFT_MAX:
                fail(f"volume drift {drift:.3e} > {VOLUME_DRIFT_MAX:g}")
            limit = 1.0 + self.area_slack + CSV_ROUNDING
            rises = [k for k in range(1, len(area))
                     if area[k] > area[k - 1] * limit]
            if rises:
                fail(f"area rose at step {rises[0]} "
                     f"({area[rises[0] - 1]!r} -> {area[rises[0]]!r})")
        if op.converges:
            path = out / "verdict.txt"
            if not path.is_file():
                fail("no verdict.txt")
                return
            verdict = _read_verdict(path)
            for key in ("converged", "isoperimetric_pass"):
                if verdict.get(key) != "true":
                    fail(f"verdict {key} = {verdict.get(key)}")


def check_repeats(results, store, key_prefix):
    """Fail repeats whose trace.csv differs from the first one with the same
    run files, in this run or in an earlier run of the same code."""
    for res in results:
        if res.trace_sha256 is None:
            continue
        key = f"{key_prefix}/{res.name}"
        first = store.setdefault(key, res.trace_sha256)
        if res.trace_sha256 != first:
            res.failures.append(f"trace.csv differs from an earlier repeat "
                                f"(sha256 {first})")


def measure(runner, timed, probe, seconds):
    """Untraced runs: timed operations (each followed by the probe, if any)
    until the next round would overrun `seconds`, between two batches of
    set-up-only calls, so set-up samples span the run."""
    runner.warm_up(timed.warmup())
    setups = [runner.setup_time(timed) for _ in range(SETUP_REPEATS)]
    results = []
    rounds = 0
    start = perf_counter()
    while True:
        results.append(runner.run(timed, timed=True))
        if probe is not None:
            results.append(runner.run(probe, timed=False))
        rounds += 1
        if (perf_counter() - start) * (rounds + 1) / rounds > seconds:
            break
    setups += [runner.setup_time(timed) for _ in range(SETUP_REPEATS)]
    timed_runs = [r for r in results if r.timed]
    setups += [r.setup_s for r in timed_runs if r.setup_s is not None]
    run_s = [r.run_s for r in timed_runs]
    metrics = {
        "run_s": statistics.median(run_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = (f"run_s median of {len(run_s)} timed operation(s); "
             f"setup_s median of {len(setups)} set-ups")
    return results, metrics, notes


def layer_metrics(tracer, traced, base):
    """Per-layer values, keyed as in per_layer_units(); spans never entered
    read 0."""
    values = dict(tracer.counts)
    for name, (calls, self_s, total_s) in tracer.stats().items():
        values.update({f"{name}.calls": calls, f"{name}.self_s": self_s,
                       f"{name}.total_s": total_s})
    values["cli.self_s"] = values[f"{ROOT_SPAN}.self_s"]
    steps = traced.steps or 0
    attempts = values.get("flow.step_lagrangian.calls", 0) + \
        values.get("flow.step_graph.calls", 0)
    projections = values.get("flow._rescale_to_volume.calls", 0)
    values["flow.steps"] = steps
    values["flow.attempts"] = attempts
    values["flow.accept_ratio"] = steps / attempts if attempts else 0.0
    values["flow.ms_per_step"] = \
        1e3 * base.flow_s / steps if steps and base.flow_s else 0.0
    values["flow.volume_evals_per_projection"] = (
        tracer.calls_under("surface.enclosed_volume", "flow._rescale_to_volume")
        / projections if projections else 0.0)
    values["trace.overhead_share"] = traced.run_s / base.run_s - 1.0
    return {key: values.get(key, 0) for key in per_layer_units()}


def trace_run(runner, timed, probe, spans_path):
    """One untraced and one traced timed operation; per-layer metrics."""
    runner.warm_up(timed.warmup())
    base = runner.run(timed, timed=True)
    results = [base]
    if probe is not None:
        results.append(runner.run(probe, timed=False))
    with Tracer() as tracer:
        tracer.install(runner.ck)
        traced = runner.run(timed, timed=True, tracer=tracer)
    results.append(traced)
    tracer.write(spans_path)
    notes = (f"traced run_s {traced.run_s:.4f} s against untraced "
             f"{base.run_s:.4f} s; spans in {spans_path.relative_to(REPO)}")
    return results, layer_metrics(tracer, traced, base), notes


def _load_json(path, default):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return default


def _write_json(path, data):
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def bench(args, workloads=WORKLOADS):
    """Run one benchmark invocation; returns the result object."""
    pin_threads()
    ck = import_ckflow()
    env = environment()
    workload = workloads[args.workload]
    timed, probe = workload.operations(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    tag = f"{workload.name}-seed{args.seed}"
    print(f"perfbench {tag} trace={args.trace} seconds={args.seconds:g}; "
          f"warm-up: the timed run file with flow.max_steps = "
          f"{WARMUP_STEPS}, untimed", flush=True)
    print("env " + json.dumps(env), flush=True)
    try:
        runner = Runner(ck, workdir)
        if args.trace:
            results, metrics, notes = trace_run(
                runner, timed, probe, OUT / f"spans-{tag}.csv.gz")
            units = per_layer_units()
        else:
            results, metrics, notes = measure(runner, timed, probe,
                                              args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    store_path = OUT / "trace_sha256.json"
    store = _load_json(store_path, {})
    run_files = "".join(op.run_file() for op in (timed, probe) if op)
    run_files_sha = hashlib.sha256(run_files.encode()).hexdigest()
    check_repeats(results, store, f"{env['src_sha256'][:16]}/"
                  f"{run_files_sha[:16]}/{workload.name}/{args.seed}")
    _write_json(store_path, store)

    for res in results:
        print(res.line())
    failed = sum(bool(r.failures) for r in results)
    print(f"summary {notes}; fail_share {failed}/{len(results)}")
    if not args.trace:
        metrics["pass_share"] = 1.0 - failed / len(results)
    result = {
        "correct": all(not r.failures for r in results if r.timed),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    with open(OUT / "results.jsonl", "a") as fh:
        record = {"workload": workload.name, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds, "env": env,
                  "operations": [asdict(r) for r in results], **result}
        fh.write(json.dumps(record) + "\n")
    return result


def main(argv=None):
    args = parse_args(argv)
    try:
        result = bench(args)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
