#!/usr/bin/env python3
"""End-to-end simulator benchmark.

Builds the worker (worker.ml, next to this file) from the checkout with
dune, runs one workload in fresh worker processes for --seconds, checks
every run's outputs and prints one result line per run, the metrics by
name with their units, and as the last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 also makes one
traced run (profiler spans and the default metric registry on) and
reports the per-layer metrics. README.md in this directory lists the
workloads and metrics.

Usage (from anywhere):
    python3 e2ebench/run.py --workload te-stride8 --seed 1 --seconds 30 --trace 0
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER_TARGET = "./e2ebench/worker.exe"
WORKER = os.path.join(ROOT, "_build", "default", "e2ebench", "worker.exe")

# The workloads (defined in worker.ml) and the output check on their
# collectors: PlanckTE workloads must sample, the static ones must not (a
# change that skips work must not look faster).
SAMPLES_EXPECTED = {
    "te-stride8": True,
    "static-stride8": False,
    "churn-mice": True,
    "fabric-k16-sharded": False,
}

# Each invocation runs rounds over SEEDS_PER_ROUND seeds made from
# --seed, so its medians average over inputs as well as over machine
# noise; every seed runs at least twice, so the results of same-seed
# runs can be compared.
SEEDS_PER_ROUND = 4
MIN_ROUNDS = 2
# Whole invocation, build excluded, stays under this many seconds.
DEADLINE_S = 170

# Per-layer span names reported by the traced run (Profile catalog).
SPANS = [
    "engine.dispatch",
    "switch.pipeline",
    "sink.drain",
    "sketch.update",
    "te.decide",
    "te.install",
    "journal.io",
    "flusher.flush",
]

MIB = 1024 * 1024


def log(msg):
    print(msg, flush=True)


def build():
    """Builds the worker; exits 1 without a result if that fails."""
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        sys.stderr.write("run.py: no dune-project and lib/ in %s\n" % ROOT)
        sys.exit(1)
    proc = subprocess.run(
        # the shared dune cache lives outside the checkout
        ["dune", "build", "--root", ROOT, "--cache=disabled", WORKER_TARGET],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.isfile(WORKER):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("run.py: building the worker failed\n")
        sys.exit(1)


def worker(workload, seed, mode, deadline):
    """One fresh worker process, killed at the monotonic [deadline];
    returns its JSON record."""
    proc = subprocess.run(
        [WORKER, workload, str(seed), mode],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker %s %s exited with %d" % (workload, mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- output checks ----


def check_run(workload, rec, reference_digest):
    """Failed output checks of one untraced run, as messages."""
    problems = []
    if rec["completed"] != rec["flows"]:
        problems.append("%d of %d flows did not complete" % (rec["flows"] - rec["completed"], rec["flows"]))
    if workload == "te-stride8" and rec["reroutes"] < 1:
        problems.append("PlanckTE made no reroute")
    if SAMPLES_EXPECTED[workload] and rec["samples"] <= 0:
        problems.append("collectors saw no samples")
    if not SAMPLES_EXPECTED[workload] and rec["samples"] != 0:
        problems.append("collectors saw %d samples on a static run" % rec["samples"])
    if rec["digest"] != reference_digest:
        problems.append("result digest %s differs from %s for the same seed" % (rec["digest"], reference_digest))
    return problems


def failed_flows(rec, problems):
    """Flows counted as failed: the incomplete ones, or every flow of a
    run that failed any other output check."""
    incomplete = rec["flows"] - rec["completed"]
    other = len(problems) - (1 if incomplete > 0 else 0)
    return rec["flows"] if other > 0 else incomplete


# ---- metrics ----


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(runs):
    return {
        "wall_s": (statistics.median([r["wall_s"] for r in runs]), "s"),
        "setup_s": (statistics.median([r["setup_s"] for r in runs]), "s"),
        "segments_per_s": (statistics.median([r["segments"] / r["wall_s"] for r in runs]), "1/s"),
        "peak_heap_mb": (statistics.median([r["top_heap_words"] * 8 / MIB for r in runs]), "MiB"),
    }


def per_layer(runs, traced):
    """Counts are medians over the untraced runs; shares and span costs
    come from the one traced run."""

    def med(f):
        return statistics.median([f(r) for r in runs])

    same_seed_wall = statistics.median([r["wall_s"] for r in runs if r["seed"] == traced["seed"]])
    # The simulation span is every shard domain's timeline, so per-span
    # self-time shares plus the unattributed rest add up to 1.
    sim_ns = traced["traced_wall_s"] * 1e9 * runs[0]["domains"]
    spans = {s["name"]: s for s in traced["spans"]}
    m = {
        "testbed.create_s": (traced["create_s"], "s"),
        "testbed.routes": (med(lambda r: r["routes"]), "count"),
        "testbed.setup_words": (med(lambda r: r["setup_words"]), "words"),
        "scheme.deploy_s": (traced["deploy_s"], "s"),
        "engine.events_per_segment": (med(lambda r: ratio(r["events"], r["segments"])), "events/segment"),
        "engine.ns_per_event": (med(lambda r: ratio(r["wall_s"] * 1e9, r["events"])), "ns"),
        "engine.pending_max": (med(lambda r: r["pending_max"]), "count"),
        "engine.cancels_per_event": (med(lambda r: ratio(r["timers_cancelled"], r["events"])), "cancels/event"),
        "engine.compactions": (med(lambda r: r["compactions"]), "count"),
        "gc.words_per_segment": (med(lambda r: ratio(r["sim_words"], r["segments"])), "words/segment"),
        "gc.promoted_words_per_segment": (med(lambda r: ratio(r["promoted_words"], r["segments"])), "words/segment"),
        "gc.minor_collections": (med(lambda r: r["minor_collections"]), "count"),
        "gc.major_collections": (med(lambda r: r["major_collections"]), "count"),
        "switch.frames_per_segment": (med(lambda r: ratio(r["frames"], r["segments"])), "frames/segment"),
        "switch.data_drops": (med(lambda r: r["data_drops"]), "count"),
        "switch.mirror_drops": (med(lambda r: r["mirror_drops"]), "count"),
        "collector.samples_per_segment": (med(lambda r: ratio(r["samples"], r["segments"])), "samples/segment"),
        "collector.data_sample_frac": (med(lambda r: ratio(r["data_samples"], r["samples"])), "fraction"),
        "collector.parse_errors": (med(lambda r: r["parse_errors"]), "count"),
        "collector.flows_tracked": (med(lambda r: r["flows_tracked"]), "count"),
        "sink.ring_drops": (traced["ring_drops"], "count"),
        "te.notifications": (med(lambda r: r["te_notifications"]), "count"),
        "te.reroutes": (med(lambda r: r["te_reroutes"]), "count"),
        "tcp.retransmits_per_segment": (med(lambda r: ratio(r["retransmits"], r["segments"])), "1/segment"),
        "tcp.timeouts": (med(lambda r: r["timeouts"]), "count"),
        "tcp.flows_per_s": (med(lambda r: ratio(r["completed"], r["wall_s"])), "1/s"),
        "shard.cpu_per_wall": (med(lambda r: ratio(r["cpu_s"], r["wall_s"])), "s/s"),
        "shard.event_imbalance": (
            med(lambda r: ratio(max(r["engine_events"]), statistics.mean(r["engine_events"]))),
            "ratio",
        ),
        "shard.cross_frames_per_segment": (med(lambda r: ratio(r["cross_frames"], r["segments"])), "frames/segment"),
        "shard.windows": (med(lambda r: ratio(r["sim_time_s"], r["lookahead_s"])), "count"),
        "profile.overhead_x": (ratio(traced["traced_wall_s"], same_seed_wall), "x"),
        "profile.count_gap": (traced["traced_events"] - traced["registry_events"], "count"),
        "calib.probe_ms": (med(lambda r: r["probe_ms"]), "ms"),
    }
    for name in SPANS:
        s = spans.get(name, {"calls": 0, "self_ns": 0, "minor_words": 0})
        m[name + "_calls"] = (s["calls"], "count")
        m[name + "_self_frac"] = (ratio(s["self_ns"], sim_ns), "fraction")
        m[name + "_words_per_call"] = (ratio(s["minor_words"], s["calls"]), "words")
    attributed = sum(ratio(s["self_ns"], sim_ns) for s in spans.values())
    m["profile.unattributed_frac"] = (1.0 - attributed, "fraction")
    return m


# ---- driver ----


def run_seeds(seed):
    """The workload seeds one invocation runs, all made from --seed."""
    return [seed * 1000 + j for j in range(SEEDS_PER_ROUND)]


def measure(workload, seed, seconds, deadline):
    """Rounds of fresh untraced worker runs, one per run seed, until the
    next round would overrun --seconds (at least MIN_ROUNDS)."""
    runs = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        for s in run_seeds(seed):
            rec = worker(workload, s, "run", deadline)
            rec["seed"] = s
            runs.append(rec)
            log(
                "run %d workload %s seed %d: setup_s %.6f wall_s %.6f probe_ms %.3f "
                "flows %d/%d segments %d events %d avg_goodput_gbps %.9g reroutes %d samples %d digest %s"
                % (
                    len(runs), workload, s, rec["setup_s"], rec["wall_s"], rec["probe_ms"],
                    rec["completed"], rec["flows"], rec["segments"], rec["events"],
                    rec["avg_goodput_gbps"], rec["reroutes"], rec["samples"], rec["digest"],
                )
            )
        now = time.monotonic()
        if len(runs) >= MIN_ROUNDS * SEEDS_PER_ROUND and now - start + (now - t0) > seconds:
            return runs


def evaluate(workload, runs, traced=None):
    """Checks every run against the first run of its seed (and the traced
    run against the untraced runs of its seed). Returns the failed checks
    as messages and the flows attempted and failed."""
    first = {}
    for rec in runs:
        first.setdefault(rec["seed"], rec)
    attempted = failed = 0
    problems_all = []
    for i, rec in enumerate(runs):
        problems = check_run(workload, rec, first[rec["seed"]]["digest"])
        attempted += rec["flows"]
        failed += failed_flows(rec, problems)
        problems_all += ["run %d seed %d: %s" % (i + 1, rec["seed"], p) for p in problems]
    if traced is not None:
        ref = first[traced["seed"]]
        attempted += ref["flows"]
        if traced["traced_digest"] != ref["digest"]:
            problems_all.append(
                "traced run seed %d: digest %s differs from %s" % (traced["seed"], traced["traced_digest"], ref["digest"])
            )
            failed += ref["flows"]
    return problems_all, attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(SAMPLES_EXPECTED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    build()
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        # Half the time for the untraced runs the per-layer counts come
        # from; the traced run (several times slower) follows.
        runs = measure(args.workload, args.seed, args.seconds / 2, deadline)
        traced = worker(args.workload, runs[0]["seed"], "trace", deadline)
        traced["seed"] = runs[0]["seed"]
        metrics = per_layer(runs, traced)
    else:
        runs = measure(args.workload, args.seed, args.seconds, deadline)
        traced = None
        metrics = end_to_end(runs)
    problems, attempted, failed = evaluate(args.workload, runs, traced)

    for p in problems:
        log("CHECK FAILED %s" % p)
    for s in run_seeds(args.seed):
        rec = next(r for r in runs if r["seed"] == s)
        log(
            "results workload %s seed %d (from --seed %d): digest %s avg_goodput_gbps %.9g reroutes %d events %d"
            % (args.workload, s, args.seed, rec["digest"], rec["avg_goodput_gbps"], rec["reroutes"], rec["events"])
        )
    log("flows_failed_frac %.6g fraction (%d of %d flows)" % (ratio(failed, attempted), failed, attempted))
    for name, (value, unit) in metrics.items():
        log("%s %.6g %s" % (name, value, unit))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
