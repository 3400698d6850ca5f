"""Steadiness report: run one workload under several seeds and print
each metric's median and spread (interquartile range / median).

    python3 perfbench/spread.py --workload fleet --seeds 1-10 --seconds 20

Runs are made one after another, never in parallel.  Each metric is
compared with its bound in ``BENCHMARK.json`` when that file is
present; a spread at or above a third of the bound is flagged.  The
report is also written to ``perfbench/out/spread-<workload>.json``.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

from stats import spread

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    """``"1-5"`` or ``"1,4,9"`` as a list of ints."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def bounds():
    """End-to-end bounds by metric name, if ``BENCHMARK.json`` exists."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    values = {}
    units = {}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             f"{args.seconds:g}", "--trace", str(args.trace)],
            cwd=str(ROOT), capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}"
                  f"{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        detail = next((json.loads(line[len("detail "):]) for line in lines
                       if line.startswith("detail ")), None)
        runs.append({"seed": seed, "result": result, "detail": detail})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in sorted(result["metrics"].items())),
            flush=True)

    limits = bounds()
    report = {}
    print(f"\n{args.workload}: {len(args.seeds)} runs of "
          f"{args.seconds:g} s")
    print(f"  {'metric':<28} {'median':>12} {'unit':<6} {'spread':>7} "
          f"{'bound':>6}")
    for name in sorted(values):
        median = statistics.median(values[name])
        share = spread(values[name])
        bound = limits.get(name)
        flag = ""
        if bound is not None and share >= bound / 3.0:
            flag = "  <-- not below a third of its bound"
        report[name] = {"median": median, "spread": share, "bound": bound,
                        "unit": units[name], "values": values[name]}
        print(f"  {name:<28} {median:>12.4f} {units[name]:<6} "
              f"{share:>7.3f} {bound if bound is not None else '-':>6}"
              f"{flag}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(
        {"workload": args.workload, "seconds": args.seconds,
         "trace": args.trace, "metrics": report, "runs": runs},
        indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
