"""shapdrift benchmark.

One run:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics of BENCHMARK.json; with
--trace 1 it makes one traced run and the layer microbenchmarks and reports
the per-layer metrics. The last line of stdout is the result as JSON.

Every workload, untraced and traced, with every metric printed by name and
unit and the record written to .perfbench_out/record.json:
  python3 perfbench/run.py --all [--seed N] [--seconds S]

See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_hashes.json"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5        # timed set-ups per run, after one untimed warm-up
IMPORT_PROBES = 3

workloads = calib = None   # imported in main(), after the thread pins are set


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list) -> tuple:
    """Run a child to completion; returns (stdout lines, wall s, rusage)."""
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(argv[:2])} exited with {proc.returncode}")
    return out.splitlines(), wall, usage


def worker(command: str, *args) -> list:
    lines, _, _ = spawn([str(HERE / "worker.py"), command, *map(str, args)])
    return [json.loads(line) for line in lines if line.startswith("{")]


def quartiles(values: list) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def machine_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "blas_threads": THREAD_PINS}


# -- output checks -------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}


def check_seed(seed_dir: Path, wl, seed: int, tiny: bool, reference: dict) -> dict:
    """Output check, plus the sha256 of the CSVs beside the checked-in reference.

    A hash change is reported, not failed: a change that alters arithmetic
    order may change the bytes and must say so.
    """
    problems = workloads.check_outputs(seed_dir, wl)
    hashes = {} if problems else workloads.file_hashes(seed_dir)
    ref = {} if tiny else reference.get(wl.name, {}).get(str(seed), {})
    changed = [name for name in hashes if name in ref and ref[name] != hashes[name]]
    if not ref:
        status = "no reference"
    elif changed:
        status = "CHANGED " + ", ".join(
            f"{name} (reference {ref[name][:12]})" for name in changed)
    else:
        status = "matches reference"
    return {"seed": seed, "problems": problems, "hashes": hashes, "status": status}


# -- untraced runs -------------------------------------------------------------------


def setup_probes(wl, seed: int, config: Path | None, tiny: bool) -> list:
    """Fresh set-up processes; each gives its set-up time and kernel time."""
    probes = []
    for _ in range(SETUP_PROBES + 1):
        args = ["--workload", wl.name, "--seed", seed, "--t0", time.monotonic()]
        if config:
            args += ["--config", config]
        if tiny:
            args.append("--tiny")
        probes.append(worker("setup", *args)[0])
    return probes[1:]


def cli_seed(wl, config: Path, seed: int, outdir: Path) -> dict:
    lines, wall, usage = spawn(["-c", workloads.CLI_MAIN] + wl.argv(config, seed, outdir))
    kernel_s = json.loads(next(line for line in lines if line.startswith("{")))["kernel_s"]
    return {"seed": seed, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "kernel_s": kernel_s}


def measure(name: str, seed: int, seconds: float, tiny: bool, workdir: Path) -> dict:
    """Untraced closed loop: one seed after another until ``seconds`` pass."""
    wl = workloads.get(name, tiny)
    config = wl.write_config(workdir / "config.json") if wl.kind == "cli" else None
    setup = setup_probes(wl, seed, config, tiny)
    samples, raised = [], []
    if wl.kind == "cli":
        start, current = time.monotonic(), seed
        while True:
            try:
                samples.append(cli_seed(wl, config, current, workdir))
                last = samples[-1]["wall_s"]
            except ChildFailed as exc:
                raised.append(f"seed {current}: {exc}")
                last = 0.0
            current += 1
            elapsed = time.monotonic() - start
            if elapsed >= seconds or elapsed + last > workloads.HARD_LIMIT_S:
                break
    else:
        args = ["--workload", name, "--seed", seed, "--seconds", seconds, "--out", workdir]
        lines, _, usage = spawn([str(HERE / "worker.py"), "loop"] + list(map(str, args))
                                + (["--tiny"] if tiny else []))
        for rec in (json.loads(line) for line in lines if line.startswith("{")):
            if "error" in rec:
                raised.append(f"seed {rec['seed']}: {rec['error']}")
            else:
                samples.append({**rec, "peak_rss_mb": usage.ru_maxrss / 1024.0})

    reference = load_reference()
    checks = [check_seed(workdir / f"seed_{s['seed']}", wl, s["seed"], tiny, reference)
              for s in samples]
    good = [s for s, c in zip(samples, checks) if not c["problems"]]
    if not good:
        raise ChildFailed(f"{name}: no seed completed correctly: {raised} {checks}")
    summary = {key: quartiles([calib.to_reference(s[key], s["kernel_s"]) for s in good])
               for key in ("wall_s", "cpu_s")}
    summary["peak_rss_mb"] = quartiles([s["peak_rss_mb"] for s in good])
    summary["setup_s"] = quartiles([calib.to_reference(p["setup_s"], p["kernel_s"])
                                    for p in setup])
    raw = {f"{key} as measured": quartiles([s[key] for s in rows])
           for key, rows in (("wall_s", good), ("cpu_s", good), ("setup_s", setup))}
    raw["kernel_ms"] = quartiles([1e3 * s["kernel_s"] for s in good])
    return {
        "workload": name,
        "attempted": len(samples) + len(raised),
        "failed": len(raised) + len(samples) - len(good),
        "metrics": {key: q["median"] for key, q in summary.items()},
        "summary": summary,
        "raw": raw,
        "checks": checks,
        "errors": raised,
    }


# -- traced runs ---------------------------------------------------------------------


def trace(name: str, seed: int, tiny: bool, workdir: Path) -> dict:
    """One untraced and one traced run of the same seed, then the layer
    microbenchmarks and fresh-import probes."""
    wl = workloads.get(name, tiny)
    size = ["--tiny"] if tiny else []
    base = ["--workload", name, "--seed", seed] + size
    seed_dirs = [workdir / "untraced" / f"seed_{seed}", workdir / "traced" / f"seed_{seed}"]
    if wl.kind == "cli":
        config = wl.write_config(workdir / "config.json")
        untraced = cli_seed(wl, config, seed, workdir / "untraced")["wall_s"]
        result = worker("trace", *base, "--out", workdir / "traced", "--config", config,
                        "--t0", time.monotonic())[0]
        if result["exit_code"] != 0:
            raise ChildFailed(f"traced shapdrift run exited with {result['exit_code']}")
        artifact_bytes = sum(f.stat().st_size for f in (workdir / "traced").rglob("*")
                             if f.is_file())
    else:
        result = worker("trace", *base, "--out", workdir)[0]
        untraced = result["untraced_wall_s"]
        artifact_bytes = 0
    reference = load_reference()
    checks = [check_seed(d, wl, seed, tiny, reference) for d in seed_dirs]
    if not any(c["problems"] for c in checks) and checks[0]["hashes"] != checks[1]["hashes"]:
        checks[1]["problems"].append("traced outputs differ from untraced outputs")

    summary = result["summary"]
    metrics = dict(summary["metrics"])
    metrics.update(worker("micro", *size)[0])
    imports = [worker("import")[0]["import_s"] for _ in range(IMPORT_PROBES)]
    metrics["cli.import_ms"] = 1e3 * statistics.median(imports)
    metrics["cli.artifact_bytes"] = artifact_bytes
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    return {
        "workload": name,
        "attempted": 2,
        "failed": sum(1 for c in checks if c["problems"]),
        "metrics": metrics,
        "spans": summary["spans"],
        "span_count": summary["span_count"],
        "not_traced": summary["missing"],
        "checks": checks,
    }


# -- reporting -----------------------------------------------------------------------


def declared_metrics(trace_on: bool) -> list:
    """(name, unit) in BENCHMARK.json order for the kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace_on else "end_to_end"]]


def result_line(run: dict, trace_on: bool) -> dict:
    metrics = {}
    for name, unit in declared_metrics(trace_on):
        if name not in run["metrics"]:
            raise KeyError(f"metric {name} declared in BENCHMARK.json was not measured")
        metrics[name] = {"value": run["metrics"][name], "unit": unit}
    correct = run["failed"] == 0 and not any(c["problems"] for c in run["checks"])
    return {"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
            "metrics": metrics}


def print_run(run: dict, trace_on: bool) -> None:
    name = run["workload"]
    for metric, unit in declared_metrics(trace_on):
        extra = ""
        if not trace_on:
            q = run["summary"][metric]
            extra = f"  (q1 {q['q1']:.4g}, q3 {q['q3']:.4g}, n {q['n']})"
        print(f"{name:18s} {metric:40s} {run['metrics'][metric]:14.6g} {unit}{extra}")
    for label, q in run.get("raw", {}).items():
        print(f"{name:18s}   {label:38s} {q['median']:14.6g}"
              f"    (q1 {q['q1']:.4g}, q3 {q['q3']:.4g}, n {q['n']})")
    if trace_on:
        print(f"{name:18s} spans: name, count, inclusive s, self s, inclusive share")
        for span, entry in run["spans"].items():
            print(f"{name:18s}   {span:40s} {entry['count']:7d} {entry['inclusive_s']:10.4f}"
                  f" {entry['self_s']:10.4f} {entry['inclusive_share']:7.1%}")
        m = run["metrics"]
        stages = {
            "training incl. GSS (strategies.train_s.*)":
                sum(m[f"strategies.train_s.{s}"] for s in ("naive", "er", "gss", "joint")),
            "GSS admission (strategies.gss_admit)":
                run["spans"].get("strategies.gss_admit", {}).get("inclusive_s", 0.0),
            "attribution (explainers.attribute_s)": m["explainers.attribute_s"],
            "scoring (protocol.score_s)": m["protocol.score_s"],
        }
        for stage, seconds in stages.items():
            print(f"{name:18s} share of trace.wall_s: {stage:40s} "
                  f"{seconds / m['trace.wall_s']:7.1%}")
        self_sum = sum(v for k, v in m.items() if k.startswith("layer."))
        print(f"{name:18s} layer self times sum to {self_sum:.6f} s; "
              f"trace.wall_s {run['metrics']['trace.wall_s']:.6f} s")
        for missing in run["not_traced"]:
            print(f"{name:18s} not traced (name absent): {missing}")
    print(f"{name:18s} failed_ops {run['failed']}/{run['attempted']} runs")
    for check in run["checks"]:
        for problem in check["problems"]:
            print(f"{name:18s} OUTPUT CHECK FAILED seed {check['seed']}: {problem}")
        if check["hashes"]:
            digests = " ".join(f"{k} {v[:12]}" for k, v in check["hashes"].items())
            print(f"{name:18s} seed {check['seed']} {digests}: {check['status']}")
    for error in run.get("errors", []):
        print(f"{name:18s} ERROR {error}")


def run_one(name: str, seed: int, seconds: float, trace_on: bool, tiny: bool) -> dict:
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace_on)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace_on:
            return trace(name, seed, tiny, workdir)
        return measure(name, seed, seconds, tiny, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def update_reference(runs: list) -> None:
    reference = load_reference()
    for run in runs:
        for check in run["checks"]:
            if check["hashes"]:
                reference.setdefault(run["workload"], {})[str(check["seed"])] = check["hashes"]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description="shapdrift benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced; writes the record")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    parser.add_argument("--update-reference", action="store_true",
                        help="store this run's output hashes as the reference")
    args = parser.parse_args()

    if not (ROOT / "src" / "shapdrift" / "__init__.py").is_file():
        print(f"no shapdrift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    global workloads, calib
    import calib as calib_module
    import workloads as workloads_module
    workloads, calib = workloads_module, calib_module

    names = list(workloads.WORKLOADS) if args.all else [args.workload]
    if None in names or any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    modes = (False, True) if args.all else (bool(args.trace),)
    runs, results = [], []
    try:
        for name in names:
            for trace_on in modes:
                run = run_one(name, args.seed, args.seconds, trace_on, args.tiny)
                print_run(run, trace_on)
                runs.append(run)
                results.append(result_line(run, trace_on))
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    machine = machine_record()
    for run in runs:
        if "trace.overhead_s" in run["metrics"]:
            machine[f"trace_overhead_s.{run['workload']}"] = run["metrics"]["trace.overhead_s"]
    print("machine " + json.dumps(machine))
    if args.update_reference:
        update_reference(runs)
    if args.all:
        OUT.mkdir(exist_ok=True)
        (OUT / "record.json").write_text(json.dumps(
            {"machine": machine, "seed": args.seed, "seconds": args.seconds,
             "runs": runs, "results": results}, indent=1))
        print(f"record written to {OUT / 'record.json'}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"] if len(results) == 1 else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
