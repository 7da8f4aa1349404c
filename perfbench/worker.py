"""Child processes of the benchmark; ``run.py`` starts them.

  setup   time from process start to just before the first training step,
          then the calibration kernel
  loop    protocol workloads: run seed after seed until the time is up,
          with the calibration sampler of calib.py running
  trace   one seed untraced then traced (protocol workloads), or one traced
          ``shapdrift run`` in this fresh interpreter (the CLI workload)
  micro   the layer microbenchmarks
  import  time a fresh ``import shapdrift.cli``

Each command prints JSON lines on stdout. numpy and shapdrift are imported
only inside the commands, after ``run.py`` has pinned the BLAS threads and
put the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import calib
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def check_package() -> None:
    """Refuse to measure a shapdrift that is not the checkout's own; load the
    modules a seed uses, so no seed pays for their import."""
    import shapdrift
    import shapdrift.protocol  # noqa: F401

    src = (ROOT / "src").resolve()
    if src not in Path(shapdrift.__file__).resolve().parents:
        sys.exit(f"shapdrift imported from {shapdrift.__file__}, not from {src}")


def cmd_setup(args) -> None:
    wl = workloads.get(args.workload, args.tiny)
    if wl.kind == "cli":
        wl.prepare(args.config, args.seed)
    else:
        import shapdrift.protocol  # noqa: F401  (a seed imports it before training)
        wl.prepare(args.seed)
    setup_s = time.monotonic() - args.t0
    check_package()
    emit({"setup_s": setup_s, "kernel_s": calib.Sampler().calibrate()})


def cmd_loop(args) -> None:
    wl = workloads.get(args.workload, args.tiny)
    check_package()
    sampler = calib.Sampler()
    sampler.start()
    try:
        start = time.monotonic()
        seed, last = args.seed, 0.0
        while True:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                report = wl.run(seed)
            except Exception as exc:  # a failed seed is counted, the loop goes on
                emit({"seed": seed, "error": f"{type(exc).__name__}: {exc}"})
            else:
                wall1 = time.perf_counter()
                last = wall1 - wall0
                emit({"seed": seed, "wall_s": last, "cpu_s": time.process_time() - cpu0,
                      "kernel_s": sampler.kernel_between(wall0, wall1)})
                wl.write(report, args.out / f"seed_{seed}")
            seed += 1
            elapsed = time.monotonic() - start
            if elapsed >= args.seconds or elapsed + last > workloads.HARD_LIMIT_S:
                return
    finally:
        sampler.stop()


def cmd_trace(args) -> None:
    wl = workloads.get(args.workload, args.tiny)
    tracer = tracing.Tracer()
    if wl.kind == "cli":
        startup = time.monotonic() - args.t0
        root = tracer.open("cli.process", start=time.perf_counter() - startup)
        span = tracer.open("cli.import")
        import shapdrift.cli
        tracer.close(span)
        tracer.install(with_cli=True)
        code = tracer.wrap("cli.main", shapdrift.cli.main)(
            wl.argv(args.config, args.seed, args.out))
        tracer.close(root)
        tracer.restore()
        check_package()
        emit({"exit_code": code, "summary": tracer.summarize()})
        return

    check_package()
    start = time.perf_counter()
    report = wl.run(args.seed)
    untraced = time.perf_counter() - start
    wl.write(report, args.out / "untraced" / f"seed_{args.seed}")
    tracer.install()
    root = tracer.open("bench.seed")
    report = wl.run(args.seed)
    tracer.close(root)
    tracer.restore()
    wl.write(report, args.out / "traced" / f"seed_{args.seed}")
    emit({"untraced_wall_s": untraced, "summary": tracer.summarize()})


def cmd_micro(args) -> None:
    check_package()
    import micro

    emit(micro.run_all(min_time=0.01 if args.tiny else 0.15))


def cmd_import(args) -> None:
    start = time.perf_counter()
    import shapdrift.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    check_package()
    emit({"import_s": elapsed})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("setup", cmd_setup), ("loop", cmd_loop), ("trace", cmd_trace),
                     ("micro", cmd_micro), ("import", cmd_import)):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--tiny", action="store_true")
        if name in ("setup", "loop", "trace"):
            p.add_argument("--workload", required=True)
            p.add_argument("--seed", type=int, required=True)
            p.add_argument("--config", type=Path)
            p.add_argument("--out", type=Path)
            p.add_argument("--t0", type=float, default=time.monotonic())
            p.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
