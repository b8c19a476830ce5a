"""The repository's benchmark: one workload, several fresh-interpreter runs.

Usage::

    python3 perfbench/run.py --workload minbft-load --seed 1 --seconds 20 --trace 0

Runs ``rep.py`` for the workload and seed again and again, one process at
a time, until ``--seconds`` are used (at least three times, or two pairs
when traced), then prints one JSON object as the last line of standard
output::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured with no layer
wrappers installed. Their event-loop time is normalized to the host's
speed by ``speed.SpeedGauge``; the raw wall time per op is in the detail
line. ``--trace 1`` alternates untraced and traced runs and
reports the per-layer ledger, whose ``trace_overhead`` is the traced event
loop's wall time over the untraced one.

A run counts as failed, and the benchmark reports no numbers and exits 1,
when an auditor verdict is not clean, an attempted operation has no
terminal outcome, the SRB audit fails, two runs of the same seed differ in
their order witness or in any virtual-time figure or program counter, or
(traced) a wrapper count disagrees with the program's own counter or the
self times do not add up. The line before the result is a JSON detail
record: machine facts, every run's wall and CPU time, and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_RUNS = 3
MIN_TRACED_RUNS = 4  # two untraced/traced pairs
RUN_TIMEOUT_S = 120

WORKLOADS = ("minbft-load", "minbft-storm", "srb-sm")

#: name, unit, better — the order BENCHMARK.json lists them in
END_TO_END = (
    ("norm_us_per_op", "us", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("vlat_p50_s", "virtual_s", "lower"),
    ("vlat_p99_s", "virtual_s", "lower"),
    ("goodput_ops_per_vs", "ops/virtual_s", "higher"),
    ("completion_ratio", "ratio", "higher"),
)

#: name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("sim.scheduler.events", "count", "lower", "norm_us_per_op on srb-sm (most events per op), then minbft-storm"),
    ("sim.scheduler.events_per_op", "count", "lower", "norm_us_per_op on srb-sm, then minbft-storm"),
    ("sim.scheduler.self_s", "s", "lower", "norm_us_per_op on srb-sm, then minbft-storm"),
    ("sim.trace.records_per_op", "count", "lower", "norm_us_per_op on minbft-storm and minbft-load"),
    ("sim.trace.self_s", "s", "lower", "norm_us_per_op on minbft-storm and minbft-load; little on srb-sm"),
    ("auditors.self_s", "s", "lower", "norm_us_per_op on minbft-load and minbft-storm"),
    ("sim.network.msgs_per_op", "count", "lower", "norm_us_per_op on minbft-load and minbft-storm; zero on srb-sm"),
    ("sim.network.dropped", "count", "lower", "vlat_p99_s and completion_ratio on minbft-storm"),
    ("sim.network.delivery_ratio", "ratio", "higher", "vlat_p99_s and completion_ratio on minbft-storm"),
    ("sim.network.self_s", "s", "lower", "norm_us_per_op on minbft-load and minbft-storm"),
    ("faults.channel.transmissions", "count", "lower", "norm_us_per_op on minbft-storm; zero elsewhere"),
    ("faults.channel.retransmits", "count", "lower", "norm_us_per_op and completion_ratio on minbft-storm"),
    ("faults.channel.dup_drops", "count", "lower", "norm_us_per_op on minbft-storm"),
    ("faults.channel.unique_ratio", "ratio", "higher", "norm_us_per_op on minbft-storm"),
    ("faults.channel.self_s", "s", "lower", "norm_us_per_op on minbft-storm; zero elsewhere"),
    ("crypto.serialize.calls", "count", "lower", "norm_us_per_op on minbft-load and srb-sm"),
    ("crypto.serialize.self_s", "s", "lower", "norm_us_per_op and peak_rss_mb on minbft-load and srb-sm"),
    ("crypto.serialize.hit_ratio", "ratio", "higher", "norm_us_per_op on minbft-load and srb-sm"),
    ("crypto.serialize.hmac_per_op", "count", "lower", "norm_us_per_op on srb-sm and minbft-load"),
    ("crypto.serialize.verify_hit_ratio", "ratio", "higher", "norm_us_per_op on srb-sm"),
    ("crypto.signatures.sign_calls", "count", "lower", "norm_us_per_op on srb-sm"),
    ("crypto.signatures.verify_calls", "count", "lower", "norm_us_per_op on srb-sm"),
    ("crypto.signatures.self_s", "s", "lower", "norm_us_per_op on srb-sm"),
    ("consensus.usig.create_calls", "count", "lower", "norm_us_per_op on minbft-load and minbft-storm only"),
    ("consensus.usig.verify_calls", "count", "lower", "norm_us_per_op on minbft-load and minbft-storm only"),
    ("consensus.usig.self_s", "s", "lower", "norm_us_per_op on minbft-load and minbft-storm only"),
    ("consensus.replica.self_s", "s", "lower", "norm_us_per_op on minbft-load and minbft-storm"),
    ("consensus.replica.batch_mean", "count", "higher", "vlat_p50_s on minbft-load"),
    ("consensus.replica.window_stalls", "count", "lower", "vlat_p99_s on minbft-load"),
    ("consensus.replica.view_changes", "count", "lower", "vlat_p99_s on minbft-load; all are fault-free view changes"),
    ("consensus.replica.state_transfers", "count", "lower", "vlat_p99_s on minbft-load; MinBFT reports 0"),
    ("consensus.replica.noop_slots", "count", "lower", "vlat_p99_s on minbft-load"),
    ("consensus.client.retransmits", "count", "lower", "vlat_p99_s on minbft-load"),
    ("consensus.client.launch_lag_p99_s", "virtual_s", "lower", "vlat_p99_s on minbft-load"),
    ("consensus.client.self_s", "s", "lower", "norm_us_per_op on minbft-load"),
    ("service.admitted", "count", "higher", "goodput_ops_per_vs on minbft-storm only"),
    ("service.shed", "count", "lower", "vlat_p99_s and completion_ratio on minbft-storm only"),
    ("service.degraded", "count", "lower", "goodput_ops_per_vs on minbft-storm only"),
    ("service.queue_peak", "count", "lower", "vlat_p99_s on minbft-storm only"),
    ("service.self_s", "s", "lower", "norm_us_per_op on minbft-storm only"),
    ("sim.shared_memory.ops", "count", "lower", "norm_us_per_op on srb-sm only"),
    ("sim.shared_memory.self_s", "s", "lower", "norm_us_per_op on srb-sm only"),
    ("core.rounds.rounds", "count", "lower", "norm_us_per_op and vlat_p50_s on srb-sm only"),
    ("core.rounds.self_s", "s", "lower", "norm_us_per_op and vlat_p50_s on srb-sm only"),
    ("core.srb.validate_calls", "count", "lower", "norm_us_per_op on srb-sm only"),
    ("core.srb.proof_memo_hit_ratio", "ratio", "higher", "norm_us_per_op on srb-sm only"),
    ("core.srb.self_s", "s", "lower", "norm_us_per_op on srb-sm only"),
    ("other.self_s", "s", "lower", "nothing named: event-loop time outside every layer"),
    ("trace_overhead", "ratio", "lower", "nothing: traced over untraced event-loop wall time"),
)


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def check_spec() -> None:
    """BENCHMARK.json and the tables above must name the same metrics."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    if listed != list(END_TO_END):
        fail("BENCHMARK.json end_to_end differs from run.py END_TO_END")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != [row[:3] for row in PER_LAYER]:
        fail("BENCHMARK.json per_layer differs from run.py PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py WORKLOADS")


def run_once(workload: str, seed: int, traced: bool) -> dict:
    """One fresh-interpreter run; its JSON record."""
    spawn_t = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), workload, str(seed),
             "1" if traced else "0", repr(spawn_t)],
            cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} ran longer than {RUN_TIMEOUT_S}s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload} seed {seed} exited with code {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["wall_s"] = time.perf_counter() - spawn_t
    return record


def collect(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Runs until ``seconds`` are used; traced mode alternates the two kinds."""
    records: list[dict] = []
    start = time.perf_counter()
    while True:
        records.append(run_once(workload, seed, traced and len(records) % 2 == 1))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in records)
        enough = len(records) >= (MIN_TRACED_RUNS if traced else MIN_RUNS)
        if enough and elapsed + typical > seconds:
            return records


def ratio(num: float, den: float) -> float:
    """``num / den``; a ratio with nothing counted in its base reads 0."""
    return num / den if den else 0.0


def coverage(rec: dict) -> list[str]:
    """Wrapper counts that disagree with the program's own counters."""
    calls = rec["ledger"]["calls"]
    c = rec["counters"]
    cs = c["crypto"]
    pairs = {
        "Network.submit == network.messages_sent": (
            calls["repro.sim.network:Network.submit"], c["messages_sent"]),
        "TraceStore.record == trace.total_recorded": (
            calls["repro.sim.trace:TraceStore.record"], c["trace_records"]),
        "Simulation._dispatch == events_processed": (
            calls["repro.sim.runner:Simulation._dispatch"], c["events"]),
        "canonical_bytes == serialize hits + misses": (
            calls["repro.crypto.serialize:canonical_bytes"],
            cs["serialize_hits"] + cs["serialize_misses"]),
        "content_hash == hash hits + misses": (
            calls["repro.crypto.serialize:content_hash"],
            cs["hash_hits"] + cs["hash_misses"]),
        "Signer.sign == crypto signs": (
            calls["repro.crypto.signatures:Signer.sign"], cs["signs"]),
        "SignatureScheme.verify == verify hits + misses + cheap rejects": (
            calls["repro.crypto.signatures:SignatureScheme.verify"],
            cs["verify_hits"] + cs["verify_misses"] + cs["cheap_rejects"]),
    }
    return [f"{name}: {a} != {b}" for name, (a, b) in pairs.items() if a != b]


def accounting(rec: dict) -> tuple[float, list[str]]:
    """``other.self_s`` for one traced run, and any broken identity."""
    led = rec["ledger"]
    self_s = led["self_s"]
    program = sum(v for k, v in self_s.items() if k != "benchmark")
    other = rec["loop_s"] - program
    problems = []
    spans = program + self_s["benchmark"]
    if abs(spans - led["top_level_s"]) > 1e-6 * max(1.0, spans):
        problems.append(f"self times sum to {spans}, top-level spans to {led['top_level_s']}")
    if led["top_level_s"] > rec["loop_s"] or other < 0:
        problems.append(f"spans {led['top_level_s']} exceed the loop's {rec['loop_s']}")
    if any(v < 0 for v in self_s.values()):
        problems.append(f"negative self time in {self_s}")
    return other, problems


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    """The per-layer ledger: counts from one traced run (they repeat
    exactly), times as medians over the traced runs."""
    rec = traced[0]
    c = rec["counters"]
    cs = c["crypto"]
    calls = rec["ledger"]["calls"]
    ops = rec["virtual"]["completed"]

    def count(*names: str) -> int:
        return sum(calls[n] for n in names)

    def median_self(layer: str) -> float:
        return statistics.median(r["ledger"]["self_s"][layer] for r in traced)

    validators = count("repro.core.srb_from_uni:validate_l1_item",
                       "repro.core.srb_from_uni:validate_l2")
    memo_misses = count("repro.core.srb_from_uni:_validate_l1_item_uncached",
                        "repro.core.srb_from_uni:_validate_l2_uncached")
    ch = c["channel"]
    svc = c["service"]
    con = c["consensus"]
    m = {
        "sim.scheduler.events": c["events"],
        "sim.scheduler.events_per_op": ratio(c["events"], ops),
        "sim.scheduler.self_s": median_self("sim.scheduler"),
        "sim.trace.records_per_op": ratio(c["trace_records"], ops),
        "sim.trace.self_s": median_self("sim.trace"),
        "auditors.self_s": median_self("auditors"),
        "sim.network.msgs_per_op": ratio(c["messages_sent"], ops),
        "sim.network.dropped": c["dropped"],
        "sim.network.delivery_ratio": c["delivery_ratio"],
        "sim.network.self_s": median_self("sim.network"),
        "faults.channel.transmissions": ch["transmissions"],
        "faults.channel.retransmits": ch["retransmits"],
        "faults.channel.dup_drops": ch["dup_drops"],
        "faults.channel.unique_ratio": ratio(
            ch["delivered"], ch["delivered"] + ch["dup_drops"]),
        "faults.channel.self_s": median_self("faults.channel"),
        "crypto.serialize.calls": count(
            "repro.crypto.serialize:canonical_bytes",
            "repro.crypto.serialize:content_hash",
            "repro.crypto.serialize:type_fingerprint"),
        "crypto.serialize.self_s": median_self("crypto.serialize"),
        "crypto.serialize.hit_ratio": ratio(
            cs["serialize_hits"], cs["serialize_hits"] + cs["serialize_misses"]),
        "crypto.serialize.hmac_per_op": ratio(cs["hmac_ops"], ops),
        "crypto.serialize.verify_hit_ratio": ratio(
            cs["verify_hits"], cs["verify_hits"] + cs["verify_misses"]),
        "crypto.signatures.sign_calls": count("repro.crypto.signatures:Signer.sign"),
        "crypto.signatures.verify_calls": count(
            "repro.crypto.signatures:SignatureScheme.verify"),
        "crypto.signatures.self_s": median_self("crypto.signatures"),
        "consensus.usig.create_calls": count("repro.consensus.usig:USIG.create_ui"),
        "consensus.usig.verify_calls": count(
            "repro.consensus.usig:USIGVerifier.verify_ui"),
        "consensus.usig.self_s": median_self("consensus.usig"),
        "consensus.replica.self_s": median_self("consensus.replica"),
        "consensus.replica.batch_mean": ratio(c["batched_requests"], c["batches"]),
        "consensus.replica.window_stalls": con.get("proposal_stalls", 0),
        "consensus.replica.view_changes": c["view_changes"],
        "consensus.replica.state_transfers": con.get("state_transfers", 0),
        "consensus.replica.noop_slots": con.get("noop_slots", 0),
        "consensus.client.retransmits": c["client_retransmits"],
        "consensus.client.launch_lag_p99_s": rec["virtual"].get("launch_lag_p99_s", 0.0),
        "consensus.client.self_s": median_self("consensus.client"),
        "service.admitted": svc.get("admitted", 0),
        "service.shed": svc.get("shed_total", 0),
        "service.degraded": svc.get("brownout_entries", 0),
        "service.queue_peak": svc.get("queue_depth_peak", 0),
        "service.self_s": median_self("service"),
        "sim.shared_memory.ops": count("repro.sim.shared_memory:SharedMemorySystem.invoke"),
        "sim.shared_memory.self_s": median_self("sim.shared_memory"),
        "core.rounds.rounds": c["rounds"],
        "core.rounds.self_s": median_self("core.rounds"),
        "core.srb.validate_calls": validators,
        "core.srb.proof_memo_hit_ratio": ratio(validators - memo_misses, validators),
        "core.srb.self_s": median_self("core.srb"),
        "other.self_s": statistics.median(accounting(r)[0] for r in traced),
        "trace_overhead": ratio(
            statistics.median(r["loop_s"] for r in traced),
            statistics.median(r["loop_s"] for r in untraced)),
    }
    return m


def end_to_end(records: list[dict]) -> dict[str, float]:
    v = records[0]["virtual"]
    return {
        "norm_us_per_op": statistics.median(
            r["gauge"]["norm_loop_s"] / r["virtual"]["completed"] * 1e6
            for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "vlat_p50_s": v["vlat_p50_s"],
        "vlat_p99_s": v["vlat_p99_s"],
        "goodput_ops_per_vs": v["goodput_ops_per_vs"],
        "completion_ratio": v["completion_ratio"],
    }


def gate(records: list[dict]) -> list[str]:
    """Correctness and determinism problems across all runs of one seed."""
    problems: list[str] = []
    first = records[0]
    for i, rec in enumerate(records):
        problems += [f"run {i}: {v}" for v in rec["violations"]]
        if rec["unresolved"]:
            problems.append(f"run {i}: {rec['unresolved']} ops without a terminal outcome")
        if rec["virtual"] != first["virtual"]:
            problems.append(f"run {i}: virtual-time results or witness differ from run 0")
        if rec["counters"] != first["counters"]:
            problems.append(f"run {i}: program counters differ from run 0")
        v = rec["virtual"]
        if "launch_lat_p50_s" in v and (
            v["vlat_p50_s"] < v["launch_lat_p50_s"] or v["vlat_p99_s"] < v["launch_lat_p99_s"]
        ):
            problems.append(f"run {i}: due-time latency below launch-timed latency")
        if "ledger" in rec:
            problems += [f"run {i}: coverage {p}" for p in coverage(rec)]
            problems += [f"run {i}: accounting {p}" for p in accounting(rec)[1]]
    traced = [r for r in records if "ledger" in r]
    if any(r["ledger"]["calls"] != traced[0]["ledger"]["calls"] for r in traced):
        problems.append("traced runs differ in wrapper call counts")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    check_spec()
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no program source at {ROOT / 'src' / 'repro'}")

    records = collect(args.workload, args.seed, args.seconds, bool(args.trace))
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    problems = gate(records)
    v = records[0]["virtual"]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "runs": [
            {k: r[k] for k in ("traced", "wall_s", "setup_s", "loop_s",
                               "loop_cpu_s", "peak_rss_mb", "gauge")}
            for r in records
        ],
        # untraced event-loop wall time per op, before normalization
        "wall_us_per_op": statistics.median(
            r["loop_s"] / r["virtual"]["completed"] * 1e6 for r in untraced),
        "virtual": v,
        "problems": problems,
    }
    if "launch_lat_p50_s" in v:
        detail["due_minus_launch_latency_s"] = {
            "p50": v["vlat_p50_s"] - v["launch_lat_p50_s"],
            "p99": v["vlat_p99_s"] - v["launch_lat_p99_s"],
        }
    if traced:
        detail["trace_overhead_base_loop_s"] = statistics.median(
            r["loop_s"] for r in untraced)
        detail["layer_self_s"] = traced[0]["ledger"]["self_s"]
    print(json.dumps(detail))

    attempted = sum(r["virtual"]["attempted"] for r in records)
    failed = sum(r["virtual"]["failed"] + r["unresolved"] for r in records)
    if problems:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    if traced:
        values = layer_metrics(traced, untraced)
        units = {name: unit for name, unit, _b, _w in PER_LAYER}
    else:
        values = end_to_end(untraced)
        units = {name: unit for name, unit, _b in END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
