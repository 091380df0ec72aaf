"""``python3 -m bench`` — the perf ledger's command line.

Three modes:

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one run of one
  workload in this process.  The last stdout line is the JSON object the
  PR driver reads (BENCHMARK.json is the contract); the line before it,
  prefixed ``DETAIL``, carries rounds, quartiles, the corpus digest, the
  trace table and the fingerprint.
* no ``--workload`` — the suite: every declared workload, each run in an
  interpreter of its own (so ``peak_rss_mb`` and the collector's state
  are that workload's alone — exactly how the PR driver runs it),
  printed as tables and written to ``bench/results/<label>.json``.
* ``--compare A.json B.json`` — every metric × workload of B as a ratio
  of base A.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from statistics import median
from typing import Any

from . import REPO_ROOT, ledger
from .common import RESULTS_DIR, fingerprint
from .runner import WORKLOAD_LAYER_METRICS, WORKLOADS, measure

DEFAULT_SEED = 20160822
QUICK_SCALE = 0.05
CHILD_TIMEOUT_S = 600


def parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="measured seconds per run")
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="1: one traced round + stage replays (per-layer metrics)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--quick", action="store_true", help="1/20-size smoke run")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--label", default="local", help="bench/results/<label>.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse(argv)
    spec = ledger.load_spec()
    if args.compare:
        return _compare(args.compare, spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if args.workload:
        if args.workload not in WORKLOADS:
            print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
            return 2
        # A terminated run unwinds through measure()'s clean-up too, so
        # no worker or resource tracker is left behind.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        run = measure(args.workload, args.seed, seconds, bool(args.trace), args.scale)
        detail = {
            "workload": run.workload,
            "seed": run.seed,
            "end_to_end": run.end_to_end,
            "notes": run.notes,
            "fingerprint": fingerprint(),
            **run.detail,
        }
        print("DETAIL " + json.dumps(detail))
        print(json.dumps(ledger.contract_line(run, spec)))
        return 0 if run.correct else 1
    return _suite(args, seconds, spec)


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int, scale: float):
    """One workload run in its own interpreter → (contract line, detail)."""
    command = [
        sys.executable, "-m", "bench",
        "--workload", name,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--scale", str(scale),
    ]  # fmt: skip
    done = subprocess.run(
        command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("DETAIL "):
        raise RuntimeError(
            f"{name}: exit {done.returncode} with no result\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1]), json.loads(lines[-2][len("DETAIL ") :])


def _suite(args, seconds: float, spec) -> int:
    scale = QUICK_SCALE if args.quick else args.scale
    if args.quick:
        seconds = 0.0
    started = time.perf_counter()
    out: dict[str, Any] = {
        "schema": 1,
        "label": args.label,
        "seed": args.seed,
        "seconds": seconds,
        "scale": scale,
        "repeat": args.repeat,
        "traced": bool(args.trace),
        "fingerprint": fingerprint(),
        "workloads": {},
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for declared in spec["workloads"]:
        name = declared["name"]
        runs = [
            _child(name, args.seed, seconds, args.trace, scale)
            for _ in range(args.repeat)
        ]
        line, detail = runs[-1]
        entry: dict[str, Any] = {
            # Every run measures the end-to-end view (it is in DETAIL
            # even when the result line carries the per-layer one).
            "end_to_end": {
                metric: ledger.summarise(
                    [each["end_to_end"][metric] for _, each in runs], unit
                )
                for metric, unit in units.items()
            },
            "detail": detail,
            "attempted": sum(each["attempted"] for each, _ in runs),
            "failed": sum(each["failed"] for each, _ in runs),
        }
        entry["fail_ratio"] = entry["failed"] / entry["attempted"]
        if args.trace:
            entry["per_layer"] = line["metrics"]
            entry["trace"] = detail.pop("trace")
        out["workloads"][name] = entry
        _print_workload(name, entry)
    _print_stages(out)
    _print_ratios(out)
    out["wall_s"] = time.perf_counter() - started
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{args.label}.json"
    with open(path, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    problems = ledger.validate(out, spec, bool(args.trace))
    print(f"\nwrote {path.relative_to(REPO_ROOT)} in {out['wall_s']:.0f} s")
    for problem in problems:
        print(f"INVALID: {problem}")
    return 1 if problems else 0


def _print_workload(name: str, entry: dict[str, Any]) -> None:
    detail, e2e = entry["detail"], entry["end_to_end"]
    rate = e2e["items_per_s"]["value"]
    print(f"\n== {name} ==  corpus {detail['plan'].get('corpus_digest', '')[:16]}")
    print(
        f"  items_per_s   {rate:>14,.1f} {detail['item']}/s"
        f"   (= {detail['rate_alias']}; {detail['rounds']} rounds of "
        f"{detail['round_items']:,}, round IQR {detail['round_iqr_ratio']:.1%}, "
        f"cpu share {detail['cpu_share']:.2f})"
    )
    print(
        f"  call_p50_us   {e2e['call_p50_us']['value']:>14,.1f} us"
        f"     ({detail['call']}; {detail['call_samples']:,} samples)"
    )
    print(f"  setup_s       {e2e['setup_s']['value']:>14.3f} s")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']['value']:>14.1f} MiB")
    print(
        f"  fail_ratio    {entry['fail_ratio']:>14.6f} ratio"
        f"  ({entry['failed']} of {entry['attempted']:,} differ from the oracle)"
    )
    for note in detail.get("notes", []):
        print(f"  ! {note}")
    plan = detail["plan"]
    if "packet_size" in plan:
        print(
            f"  derived: {rate * plan['packet_size'] * 8 / 1e9:.3f} Gb/s at "
            f"{plan['packet_size']} B, "
            f"{rate / plan['packets_per_flow']:,.0f} new flows/s"
        )
    if entry.get("trace"):
        _print_trace(entry["trace"], detail["item"])
    if entry.get("per_layer"):
        print("  per-layer readings from this workload's own run (0 ones omitted):")
        for metric, reading in entry["per_layer"].items():
            if metric in WORKLOAD_LAYER_METRICS and reading["value"]:
                print(f"    {metric:<48}{reading['value']:>16,.3f} {reading['unit']}")


def _print_trace(trace: dict[str, Any], item: str) -> None:
    print(
        f"  traced round: {trace['spans']:,} spans, root span "
        f"{trace['root_span_ns'] / 1e6:.1f} ms of {trace['round_wall_ns'] / 1e6:.1f} ms "
        f"wall → {trace['file']}"
    )
    print(f"    {'layer (span)':<40}{'calls':>9}{'self ns/' + item:>16}{'% of round':>12}")
    covered = 0.0
    for span_name, row in trace["rows"].items():
        if row["detached"]:
            continue
        covered += row["share_of_round"]
        print(
            f"    {span_name:<40}{row['count']:>9,}"
            f"{row['self_ns_per_item']:>16,.1f}{row['share_of_round']:>11.1%}"
        )
    print(f"    {'sum of self times':<40}{'':>9}{'':>16}{covered:>11.1%}")


def _print_stages(out: dict[str, Any]) -> None:
    """Stage replays do not depend on the workload: every traced run
    took them, so the table shows the median over those runs."""
    layers = [e["per_layer"] for e in out["workloads"].values() if e.get("per_layer")]
    if not layers:
        return
    print(f"\nstage replays (median of {len(layers)} traced runs):")
    for metric, reading in layers[0].items():
        if metric not in WORKLOAD_LAYER_METRICS:
            value = median([layer[metric]["value"] for layer in layers])
            print(f"  {metric:<50}{value:>16,.3f} {reading['unit']}")


def _print_ratios(out: dict[str, Any]) -> None:
    """The two ratios the roadmap tracks, each with its base."""
    loads = out["workloads"]
    steady = loads["fig4-steady"]["end_to_end"]["items_per_s"]["value"]
    billing = loads["billing-on"]["end_to_end"]["items_per_s"]["value"]
    print(
        f"\nbilling cliff: billing-on / fig4-steady = {billing / steady:.3f}x "
        f"(base {steady:,.0f} pkt/s)"
    )
    churn = loads["cp-churn"]
    plain = churn.get("per_layer", {}).get("core.server.churn_ops_per_s")
    if plain:
        # Both as the clock read them, in the same process: stage
        # replays are not scaled by the probe.
        raw = churn["detail"]["raw"]["items_per_s"]
        print(
            f"control plane: cp-churn / core.server.churn_ops_per_s = "
            f"{raw / plain['value']:.3f}x (raw {raw:,.0f} op/s over base "
            f"{plain['value']:,.0f} op/s)"
        )


# ----------------------------------------------------------------------
# Compare
# ----------------------------------------------------------------------


def _compare(paths: list[str], spec) -> int:
    with open(paths[0]) as handle:
        base = json.load(handle)
    with open(paths[1]) as handle:
        new = json.load(handle)
    for key in ("nproc", "python", "mp_start_method", "journal_filesystem"):
        if base["fingerprint"].get(key) != new["fingerprint"].get(key):
            print(
                f"fingerprint differs on {key}: {base['fingerprint'].get(key)!r} "
                f"vs {new['fingerprint'].get(key)!r} — ratios compare machines"
            )
    print(
        f"base A = {paths[0]} ({base['repeat']} run(s), commit "
        f"{base['fingerprint']['commit'][:12]}); "
        f"B = {paths[1]} ({new['repeat']} run(s), commit "
        f"{new['fingerprint']['commit'][:12]})"
    )
    print(
        f"{'workload':<14}{'metric':<14}{'base A':>16}{'B':>16}"
        f"{'B/A':>8}{'bound':>7}{'spread':>8}  status"
    )
    rows = ledger.compare(base, new, spec)
    for row in rows:
        print(
            f"{row['workload']:<14}{row['metric']:<14}{row['base']:>16,.3f}"
            f"{row['new']:>16,.3f}{row['ratio']:>8.3f}{row['bound']:>7.2f}"
            f"{row['spread']:>8.3f}  {row['status']} [{row['unit']}]"
        )
    failing = sum(entry["failed"] for entry in new["workloads"].values())
    if failing:
        print(f"B has {failing} operations that differ from the oracle")
    regressed = [row for row in rows if row["status"] == "regressed"]
    return 1 if regressed or failing else 0


if __name__ == "__main__":
    sys.exit(main())
