#!/usr/bin/env python3
"""Runs one perfbench workload against the checkout it is started from.

    python3 perfbench/run.py --workload {solve,build,serve,paper} \
        --seed N --seconds S --trace {0,1}

Builds the `perfbench` package (a Cargo workspace of its own over the
repository's crates) into $CARGO_TARGET_DIR (default `.bench_build`), runs
the workload, and prints two JSON lines: the run's metadata and details,
then the result line `{"correct", "attempted", "failed", "metrics"}`.
With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
traced variant writes its spans to `.bench_out/` and the per-layer metrics
are computed here from that file. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solve", "build", "serve", "paper")
OUT_DIR = ".bench_out"
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170
PROFILE = "release (lto = true, codegen-units = 1)"
# The per-layer metrics (name and unit) are the ones BENCHMARK.json lists.
BENCHMARK_JSON = os.path.join(HERE, os.pardir, "BENCHMARK.json")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if proc.returncode != 0:
        fail(f"build failed (cargo exited with {proc.returncode})")
    return os.path.join(target, "release", "perfbench")


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a run can be tied
    to its code where no git metadata is available."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "shims", "examples", "perfbench"]
    paths = []
    for root in roots:
        if os.path.isfile(root):
            paths.append(root)
        for d, dirs, files in os.walk(root):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "__pycache__"))
            paths.extend(os.path.join(d, f) for f in files)
    for p in sorted(paths):
        if p == os.path.join("perfbench", "Cargo.lock"):
            continue
        h.update(p.encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(run_meta):
    rev = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None
    return dict(
        run_meta,
        rustc=command_output(["rustc", "--version"]) or "unknown",
        git_rev=rev or "unavailable (not a git checkout)",
        source_sha256=source_digest(),
        profile=PROFILE,
    )


# ---------------------------------------------------------------- traces


def load_spans(path):
    with open(path) as f:
        spans = json.load(f)["spans"]
    children = defaultdict(list)
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    for s in spans:
        s["children"] = children[s["id"]]
        s["self"] = s["dur"] - covered(s, s["children"])
    return spans


def covered(span, kids):
    """Length of the part of `span` that its child spans cover."""
    intervals = sorted((max(k["start"], span["start"]), min(k["end"], span["end"])) for k in kids)
    total, reach = 0.0, span["start"]
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def descendants(span):
    for k in span["children"]:
        yield k
        yield from descendants(k)


def merged_counters(spans):
    out = defaultdict(float)
    for s in spans:
        for k, v in s["counters"].items():
            out[k] += v
    return out


def counter(counters, name, keep=lambda series: True):
    return sum(v for k, v in counters.items() if k.split("{")[0] == name and keep(k))


def engine_values(c, per=1.0):
    """Counter-derived metrics from summed `smg-obs` readings."""
    hits = counter(c, "smg_session_cache_hits_total")
    misses = counter(c, "smg_session_cache_misses_total")
    return {
        "pctl.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "dtmc.sweeps": counter(c, "smg_solve_sweeps_total", lambda k: "vi\"" not in k) / per,
        "mdp.sweeps": counter(c, "smg_solve_sweeps_total", lambda k: "vi\"" in k) / per,
        "dtmc.pool_epochs": counter(c, "smg_pool_epochs_total") / per,
        "dtmc.pool_dispatch_s": counter(c, "smg_pool_dispatch_seconds_sum") / per,
    }


def self_sum(spans, name, **attrs):
    return sum(
        s["self"]
        for s in spans
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
    )


def check_times(spans):
    return {f"pctl.{k}_s": self_sum(spans, "pctl.check", kind=k) for k in ("reach", "reward", "steady", "bounded")}


def job_values(job):
    """Per-layer values of one traced job (batch workloads and paper)."""
    d = list(descendants(job))
    compile_dtmc = self_sum(d, "lang.compile", family="dtmc")
    compile_mdp = self_sum(d, "lang.compile", family="mdp")
    states = sum(int(s["attrs"]["states"]) for s in d if s["name"] == "lang.compile")
    analyses = [s for s in d if s["name"] == "core.analyze"]
    explore = sum(float(s["attrs"]["explore_s"]) for s in analyses)
    explored = sum(int(s["attrs"]["states"]) for s in analyses)
    v = {
        "lang.parse_s": self_sum(d, "lang.parse"),
        "lang.check_s": self_sum(d, "lang.check"),
        "lang.compile_dtmc_s": compile_dtmc,
        "lang.compile_mdp_s": compile_mdp,
        "lang.states": states,
        "lang.states_per_s": states / (compile_dtmc + compile_mdp) if states else 0.0,
        "lint.run_s": self_sum(d, "lint.run"),
        "dtmc.explore_s": explore,
        "dtmc.explore_states_per_s": explored / explore if explore else 0.0,
        "core.check_s": sum(float(s["attrs"]["check_s"]) for s in analyses),
        "core.states": explored,
        "check_phase_s": self_sum(d, "pctl.check"),
    }
    v.update(check_times(d))
    v.update(engine_values(merged_counters(d)))
    return v


def layer_shares(job):
    """Share of a job's wall time spent in each layer's spans (self time)."""
    d = list(descendants(job))
    shares = defaultdict(float)
    for s in d:
        if s["name"] == "core.analyze":
            explore = float(s["attrs"]["explore_s"])
            check = float(s["attrs"]["check_s"])
            shares["dtmc.explore"] += explore
            shares["core.check"] += check
            shares["core.other"] += s["self"] - explore - check
        elif s["name"] == "lang.compile":
            shares[f"lang.compile_{s['attrs']['family']}"] += s["self"]
        elif s["name"] != "model":
            shares[s["name"].split(".")[0]] += s["self"]
    shares["unattributed"] = job["dur"] - sum(shares.values())
    return {k: v / job["dur"] for k, v in shares.items()}


def median_of(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def ratio(spans, traced, untraced):
    t = [s["dur"] for s in spans if s["name"] == traced]
    u = [s["dur"] for s in spans if s["name"] == untraced]
    return statistics.median(t) / statistics.median(u) if t and u else 0.0


def per_layer(path, workload):
    """The per-layer metrics and layer shares of one traced run."""
    spans = load_spans(path)
    values = defaultdict(float)
    if workload == "serve":
        phase = next(s for s in spans if s["name"] == "serve.phase")
        c = phase["counters"]
        n = int(phase["attrs"]["requests"])
        mean = lambda name: statistics.mean(s["dur"] for s in spans if s["name"] == name)
        computes = [s for s in spans if s["name"] == "serve.compute"]
        handler_ms = 1e3 * counter(c, "smg_serve_request_seconds_sum") / counter(c, "smg_serve_request_seconds_count")
        latency_ms = 1e3 * float(phase["attrs"]["mean_latency_s"])
        compute_ms = 1e3 * mean("serve.compute")
        replay = [d for s in computes for d in descendants(s)]
        values.update({k: v / len(computes) for k, v in check_times(replay).items()})
        values.update(engine_values(c, per=n))
        values.update(
            {
                "serve.compile_s": mean("serve.compile"),
                "serve.cold_check_s": mean("serve.cold_check"),
                "serve.handler_ms": handler_ms,
                "serve.io_wait_ms": latency_ms - handler_ms,
                "serve.compute_ms": compute_ms,
                "serve.http_errors": counter(c, "smg_serve_http_errors_total"),
                "obs.overhead_ratio": ratio(spans, "request", "request.untraced"),
            }
        )
        # Shares of the mean request latency.
        shares = {
            "io_wait": (latency_ms - handler_ms) / latency_ms,
            "handler_minus_compute": (handler_ms - compute_ms) / latency_ms,
            "compute": compute_ms / latency_ms,
        }
    else:
        jobs = [s for s in spans if s["name"] == "job"]
        per_job = [job_values(j) for j in jobs]
        values.update(median_of(per_job))
        values["obs.overhead_ratio"] = ratio(spans, "job", "job.untraced")
        probe = next((s for s in spans if s["name"] == "probe"), None)
        if probe is not None:
            one_lane = self_sum(list(descendants(probe)), "pctl.check")
            values["dtmc.lane_speedup"] = one_lane / values["check_phase_s"]
        shares = median_of([layer_shares(j) for j in jobs])
    with open(BENCHMARK_JSON) as f:
        per_layer_metrics = json.load(f)["per_layer"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in per_layer_metrics}
    return metrics, shares


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    binary = build()
    cmd = [binary, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", OUT_DIR]
    trace_path = None
    if args.trace:
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        cmd += ["--trace", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"{args.workload} did not finish: {e}")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{args.workload} failed (exit {proc.returncode})")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    context = {"meta": metadata(summary["meta"]), "detail": summary["detail"]}
    if trace_path:
        metrics, context["layer_shares"] = per_layer(trace_path, args.workload)
        context["trace_file"] = trace_path
    else:
        metrics = summary["metrics"]
    attempted, failed = summary["attempted"], summary["failed"]
    context["failed_ratio"] = failed / attempted if attempted else 1.0
    print(json.dumps(context))
    result = {"correct": summary["correct"], "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
