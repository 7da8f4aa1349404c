"""Self-test of the benchmark.

Runs every workload at tiny size through run.py, untraced and traced, and
checks that each result is correct and carries every declared metric. Then
it shows that the output check passes a good report and flags one whose
joint row was altered and one that holds a NaN.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(args: list) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} exited with {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def edit_drift_csv(path: Path, pick, value: str) -> None:
    """Set the value field of the first row that ``pick`` accepts."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    row = next(r for r in rows[1:] if pick(r))
    row[4] = value
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def main() -> int:
    from run import THREAD_PINS

    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    for name in workloads.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{name} --trace {trace}"
            try:
                result = run_bench(["--workload", name, "--seed", "0", "--seconds", "1",
                                    "--trace", str(trace), "--tiny"])
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failures.append(f"{label}: {exc}")
                continue
            declared = {m["name"] for m in spec[section]}
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                failures.append(f"{label}: result not correct: {result}")
            elif set(result["metrics"]) != declared:
                failures.append(f"{label}: metrics {sorted(set(result['metrics']) ^ declared)}"
                                " differ from BENCHMARK.json")
            else:
                print(f"ok  tiny run {label}")

    workdir = ROOT / ".perfbench_out" / f"selftest-{os.getpid()}"
    try:
        wl = workloads.get("image-mlp-gss", tiny=True)
        good = workdir / "good"
        wl.write(wl.run(0), good)
        cases = {
            "good report": (None, False),
            "altered joint row": ((lambda r: r[0] == "joint"), True),
            "NaN drift value": ((lambda r: r[0] == "naive"), True),
        }
        for label, (pick, should_flag) in cases.items():
            seed_dir = workdir / label.replace(" ", "_")
            if seed_dir != good:
                shutil.copytree(good, seed_dir)
            if pick is not None:
                edit_drift_csv(seed_dir / "drift.csv", pick,
                               "nan" if "NaN" in label else "1e-300")
            problems = workloads.check_outputs(seed_dir, wl)
            if bool(problems) != should_flag:
                failures.append(f"output check on {label}: problems {problems}")
            else:
                print(f"ok  output check on {label}: {problems[:1] or 'passes'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
