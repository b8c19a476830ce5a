"""One run of one workload in a fresh interpreter; prints one JSON line.

Usage: ``python3 perfbench/rep.py <workload> <seed> <trace 0|1> <spawn_t>``
where ``spawn_t`` is the parent's ``time.perf_counter()`` just before it
started this process (a system-wide monotonic clock on Linux), so set-up
time counts interpreter start-up and imports.

``run.py`` starts one of these per run: each run gets its own interpreter
because a long run leaves the heap and the crypto caches in a state that
slows the next one. An untraced run carries a :class:`speed.SpeedGauge`;
its ``loop_s`` leaves out the gauge's kernel calls (``loop_cpu_s`` does
not) and ``gauge.norm_loop_s`` is the loop time at the gauge's reference
host speed.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and prove it is used."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    where = Path(repro.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"repro imported from {where}, not from {ROOT / 'src'}")


def _pct(values: list[float], q: float) -> float:
    from repro.analysis.stats import percentile

    return percentile(sorted(values), q)


def virtual_metrics(outcome) -> dict:
    """Deterministic per seed: must repeat exactly between runs."""
    lat = outcome.latencies
    out = {
        "attempted": outcome.attempted,
        "completed": outcome.completed,
        "failed": outcome.failed,
        "samples": len(lat),
        "vlat_p50_s": _pct(lat, 0.50),
        "vlat_p99_s": _pct(lat, 0.99),
        "goodput_ops_per_vs": outcome.completed / outcome.span,
        "completion_ratio": outcome.completed / outcome.attempted,
        "witness": outcome.witness,
    }
    if outcome.launch_latencies:
        out["launch_lat_p50_s"] = _pct(outcome.launch_latencies, 0.50)
        out["launch_lat_p99_s"] = _pct(outcome.launch_latencies, 0.99)
        out["launch_lag_p99_s"] = _pct(outcome.launch_lags, 0.99)
    return out


def _merge(counters) -> dict:
    """Key-wise sum of numeric counters over simulations; a peak takes the
    largest value instead."""
    total: dict = {}
    for one in counters:
        for key, value in (one or {}).items():
            if isinstance(value, (int, float)):
                if "peak" in key:
                    total[key] = max(total.get(key, value), value)
                else:
                    total[key] = total.get(key, 0) + value
    return total


def program_counters(sims, probe, crypto: dict) -> dict:
    """The program's own counters after the run, summed over every
    simulation the workload built (no wrappers needed). ``crypto`` holds
    the crypto counters where the workload had to sum them itself."""
    from collections import Counter

    from repro.consensus.client import BFTClient
    from repro.consensus.minbft import MinBFTReplica
    from repro.consensus.pbft import PBFTReplica
    from repro.crypto.serialize import crypto_stats

    inner = [[getattr(p, "inner", p) for p in sim.processes] for sim in sims]
    channels = [
        p.channel for sim in sims for p in sim.processes if getattr(p, "channel", None)
    ]
    consensus = [sim.collect_consensus_stats() or {} for sim in sims]
    hist: Counter = Counter()
    for one in consensus:
        hist.update(one.get("batch_size_hist", {}))
    sent = sum(sim.network.messages_sent for sim in sims)
    return {
        "events": probe.events,
        "trace_records": sum(sim.trace.total_recorded for sim in sims),
        "messages_sent": sent,
        "dropped": sum(len(sim.network.withheld) for sim in sims),
        "delivery_ratio": (
            sum(sim.network.messages_delivered for sim in sims) / sent if sent else 1.0
        ),
        "crypto": crypto or crypto_stats().as_dict(),
        "consensus": _merge(consensus),
        "batches": sum(hist.values()),
        "batched_requests": sum(size * n for size, n in hist.items()),
        "service": _merge(sim.collect_service_stats() for sim in sims),
        # a view change leaves every replica of its simulation one view on
        "view_changes": sum(
            max((p.view for p in procs if isinstance(p, (MinBFTReplica, PBFTReplica))),
                default=0)
            for procs in inner
        ),
        "client_retransmits": sum(
            p.retransmissions for procs in inner for p in procs if isinstance(p, BFTClient)
        ),
        "channel": {
            "transmissions": sum(c.sent + c.retransmissions for c in channels),
            "retransmits": sum(c.retransmissions for c in channels),
            "delivered": sum(c.delivered for c in channels),
            "dup_drops": sum(c.duplicates_suppressed for c in channels),
        },
        "rounds": sum(sim.trace.kind_counts().get("round_end", 0) for sim in sims),
    }


def main(argv: list[str]) -> int:
    workload, seed, traced, spawn_t = argv[0], int(argv[1]), argv[2] == "1", float(argv[3])
    _import_program()
    from ledger import Ledger, Probe
    from speed import SpeedGauge
    from workloads import WORKLOADS, OutcomeLog

    from repro.crypto.serialize import reset_crypto_caches

    run = WORKLOADS[workload]
    probe = Probe(OutcomeLog())
    probe.install()
    ledger = gauge = None
    if traced:
        ledger = Ledger()
        ledger.install(probe)
    else:
        gauge = SpeedGauge()
        probe.on_loop_enter = gauge.enter
        probe.on_loop_exit = gauge.exit
    reset_crypto_caches()
    gc.collect()
    outcome = run(seed, probe)
    if not probe.sims:
        raise SystemExit(f"{workload} built no simulation")
    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "setup_s": probe.first_dispatch - spawn_t,
        # the gauge's kernel calls inside the loop are not the program's time
        "loop_s": probe.loop_s - (gauge.in_loop_kernel_s if gauge else 0.0),
        "loop_cpu_s": probe.loop_cpu_s,
        "gauge": None if gauge is None else {
            "raw_loop_s": gauge.raw_s,
            "norm_loop_s": gauge.norm_s,
            "in_loop_kernel_s": gauge.in_loop_kernel_s,
            "kernel_calls": len(gauge.kernel_s),
            "kernel_ms_p50": _pct(gauge.kernel_s, 0.50) * 1e3,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unresolved": outcome.unresolved,
        "violations": outcome.violations,
        "virtual": virtual_metrics(outcome),
        "counters": program_counters(probe.sims, probe, outcome.crypto),
    }
    if ledger is not None:
        result["ledger"] = {
            "calls": {name: c[0] for name, c in ledger.calls.items()},
            "self_s": ledger.self_times(),
            "top_level_s": ledger.top_level_s,
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
