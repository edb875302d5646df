#!/usr/bin/env python3
"""The monsem benchmark: one command runs one workload with one seed.

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 25 --trace 0

builds monsem and the harness from this checkout (into $CARGO_TARGET_DIR, or
.bench_build), runs the workload, checks every output, and prints as its
last stdout line one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json; with --trace 1 they are the per-layer metrics, and a table
of per-layer self times goes to stderr. The line before it is the full
result record with its provenance (host, nproc, compilers, build type,
commit, seed), also appended to <build dir>/results.jsonl.

    python3 perfbench/run.py --workload kernels --repeat 10 --seed 1

is the steadiness self-check: ten runs with seeds 1..10, then each
end-to-end metric's median and quartiles against its bound.

    python3 perfbench/run.py --gen-expected

regenerates perfbench/expected.tsv (only when the benchmark's programs
change; it records what the current backends answer, cross-checked).
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import metrics as M  # noqa: E402

WORKLOADS = ("cli-corpus", "kernels", "monitored")
# setup_s is the median of the measuring process's own set-up and this many
# set-up-only processes, half before it and half after.
SETUP_EXTRA = 4
# The whole run, build excluded, must end well inside 180 s.
RUN_BUDGET_S = 165
# cli-corpus times are scaled to a host on which the reference process start
# (pbref, spawn to exit) takes HOST_REF_MS (warm jobs) and the reference
# compile (`cc` on a one-line file) takes CC_REF_MS (cold jobs): about their
# medians on the 4-vCPU x86-64 machine the benchmark was built on (see
# metrics.host_normalized).
HOST_REF_MS = 0.5
CC_REF_MS = 130.0
LAYERS = ("bench", "tools", "syntax", "analysis", "compile", "interp",
          "monitor", "server")


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configures (once) and builds monsem and pbharness from source."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no monsem sources next to perfbench/; nothing to "
            "measure")
        sys.exit(2)
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "-j", "4"], check=True,
                   stdout=sys.stderr)


def provenance(bdir, seed):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 timeout=20)
            return (out.stdout + out.stderr).splitlines()[0].strip()
        except (OSError, IndexError, subprocess.SubprocessError):
            return "unknown"

    cache = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"([A-Z_]+):\w+=(.*)", line.strip())
                if m:
                    cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    aot = "unknown"
    try:
        usage = subprocess.run([os.path.join(bdir, "monsem_tools", "monsem"),
                                "--help"], capture_output=True, text=True,
                               timeout=20).stderr
        m = re.search(r"vm-aot available \((.*)\)\s*$", usage, re.M)
        aot = m.group(1) if m else "unavailable"
    except (OSError, subprocess.SubprocessError):
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    else:
        # A checkout without git history: name the sources by content.
        h = hashlib.sha256()
        for top in ("src", "tools", "perfbench"):
            for dirpath, dirs, files in sorted(os.walk(os.path.join(ROOT,
                                                                    top))):
                dirs.sort()
                for name in sorted(files):
                    p = os.path.join(dirpath, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
        commit = "tree-sha256:" + h.hexdigest()[:16]
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cxx": first_line([cache.get("CMAKE_CXX_COMPILER", "c++"),
                           "--version"]),
        "aot_cc": aot,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "commit": commit,
        "seed": seed,
    }


class Harness:
    def __init__(self, bdir, deadline):
        self.bdir = bdir
        self.deadline = deadline
        self.env = dict(os.environ)
        # Everything the run writes (cc temporaries, AOT caches, the serve
        # socket and journal) stays inside the build directory.
        self.env["TMPDIR"] = os.path.join(bdir, "tmp")
        os.makedirs(self.env["TMPDIR"], exist_ok=True)
        self.serial = 0

    def run(self, mode, extra):
        self.serial += 1
        work = os.path.join(self.bdir, "work",
                            "%s-%d-%d" % (mode, os.getpid(), self.serial))
        shutil.rmtree(work, ignore_errors=True)
        cmd = [os.path.join(self.bdir, "pbharness"), mode,
               "--root=" + ROOT, "--work=" + work,
               "--monsem=" + os.path.join(self.bdir, "monsem_tools",
                                          "monsem"),
               "--steps=" + os.path.join(HERE, "expected.tsv")] + extra
        # Its own process group: on a timeout the harness and the daemon or
        # monsem children it started go down together.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=self.env, start_new_session=True)
        try:
            out, _ = proc.communicate(
                timeout=max(5, self.deadline - time.time()))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            log("perfbench: harness %s did not finish in time" % mode)
            sys.exit(3)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            log("perfbench: harness %s exited %d" % (mode, proc.returncode))
            sys.exit(3)
        return json.loads(out.strip().splitlines()[-1])


def p(samples, q):
    return M.percentile(samples, q)[0] if samples else 0.0


def med(samples):
    return statistics.median(samples) if samples else 0.0


def end_to_end(rec, setups):
    n, a = rec["nums"], rec["arrays"]
    busy = None
    if "host_ref_ms" in a:
        # cli-corpus: every time on the reference host; the rates are per
        # second of monsem time, without the references and the checks.
        warm = M.host_normalized(a["latency_ms"], a["host_ref_ms"],
                                 HOST_REF_MS)
        cold = warm
        if a["cc_ref_ms"]:
            cold = M.host_normalized(a["latency_ms"], a["cc_ref_ms"],
                                     CC_REF_MS, at=a["cc_ref_at"], window=5)
        lat = [c if k else w for w, c, k in zip(warm, cold, a["job_cold"])]
        low = [x for x, h in zip(lat, a["job_heavy"]) if not h]
        high = [x for x, h in zip(lat, a["job_heavy"]) if h]
        busy = [x / 1e3 for x in lat]
    else:
        lat, low, high = (a["latency_ms"], a["latency_ms_low"],
                          a["latency_ms_high"])
    for name, xs in (("latency", lat), ("low", low), ("high", high)):
        if M.tail_percentile(xs) is None:
            log("perfbench: warning: %s p99 rests on fewer than 10 samples "
                "beyond it (%d samples)" % (name, len(xs)))
    jobs_per_s, steps_per_s, p50 = M.segment_medians(
        a["job_t_s"], a["job_steps"], lat, busy=busy)
    return {
        "setup_s": ("s", statistics.median(setups)),
        "jobs_per_s": ("jobs/s", jobs_per_s),
        "latency_ms_p50": ("ms", p50),
        "latency_ms_p99": ("ms", p(lat, 99)),
        "latency_ms_p99_low": ("ms", p(low, 99)),
        "latency_ms_p99_high": ("ms", p(high, 99)),
        "steps_per_s": ("steps/s", steps_per_s),
        "peak_rss_mb": ("MB", n["peak_rss_mb"]),
        "ok_share": ("ratio", 1.0 - rec["failed"] / max(1, rec["attempted"])),
    }


def events_per_step(nums):
    """Probe events delivered per machine step in each monitoring density of
    the traced half ({} outside monitored)."""
    out = {}
    for d in ("sparse", "medium", "dense"):
        steps = nums.get("traced.steps." + d)
        if steps:
            out[d] = nums.get("traced.events." + d, 0) / steps
    return out


def load_spans(path):
    spans = []
    if os.path.exists(path):
        with open(path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
    return spans


def per_layer(workload, rec, spans):
    n, a = rec["nums"], rec["arrays"]
    out = {}

    def put(name, unit, value):
        out[name] = (unit, float(value))

    put("tools.exec_floor_ms", "ms", med(a.get("tools.exec_floor_ms")))
    # Outside cli-corpus there is no replay; exec of the empty program is
    # all residual.
    put("tools.residual_ms", "ms",
        med(a.get("traced.residual_ms")) if workload == "cli-corpus"
        else med(a.get("tools.exec_floor_ms")))
    for k in ("syntax.parse_us", "syntax.prelude_us", "syntax.annotate_us",
              "analysis.resolve_us", "compile.bytecode_us",
              "compile.lower_us", "compile.aot_emit_us"):
        put(k, "us", med(a.get(k)))
    put("compile.aot_c_bytes", "bytes", med(a.get("compile.aot_c_bytes")))
    put("compile.aot_load_cold_ms", "ms",
        med(a.get("compile.aot_load_cold_ms")))
    put("compile.aot_load_warm_us", "us",
        med(a.get("compile.aot_load_warm_us")))
    put("compile.native_block_share", "ratio",
        n.get("compile.native_block_share", 0))
    for b in ("cek", "vm", "vm_reg", "vm_aot"):
        put("interp.%s.run_ms" % b, "ms", n.get("interp.%s.run_ms" % b, 0))
        put("interp.%s.ns_per_step" % b, "ns",
            n.get("interp.%s.ns_per_step" % b, 0))
        put("interp.%s.arena_bytes" % b, "bytes",
            n.get("interp.%s.arena_bytes" % b, 0))
    for m in ("profile", "cost", "callgraph", "coverage", "tracer"):
        put("monitors.%s.pre_ns" % m, "ns", n.get("monitors.%s.pre_ns" % m, 0))
        put("monitors.%s.post_ns" % m, "ns",
            n.get("monitors.%s.post_ns" % m, 0))
        put("monitors.%s.events" % m, "count",
            n.get("monitors.%s.events" % m, 0))
    put("monitor.framework_ns_per_event", "ns",
        n.get("monitor.framework_ns_per_event", 0))
    put("monitor.events_per_s", "events/s",
        n["traced.events"] / n["traced.wall_s"] if workload == "monitored"
        else n.get("monitor.events_per_s", 0))
    put("support.checkpoint.bytes", "bytes",
        n.get("support.checkpoint.bytes", 0))
    for k, unit in (("support.checkpoint.save_ms", "ms"),
                    ("support.checkpoint.load_us", "us"),
                    ("support.checkpoint.resume_us", "us"),
                    ("support.journal.append_event_us", "us"),
                    ("support.journal.append_checkpoint_us", "us"),
                    ("support.journal.recover_ms", "ms")):
        put(k, unit, med(a.get(k)))
    # The serve layer, from the short single-rate serve load of the sweep
    # (keys "serve.*"). The daemon's latencies minus the in-process
    # Session's on the same schedule are the protocol and transport cost.
    s = "serve."
    put("server.latency_ms_p50", "ms", p(a.get(s + "latency_ms"), 50))
    put("server.latency_ms_p99", "ms", p(a.get(s + "latency_ms"), 99))
    put("server.session.latency_ms_p50", "ms",
        p(a.get("session_latency_ms"), 50))
    put("server.session.latency_ms_p99", "ms",
        p(a.get("session_latency_ms"), 99))
    put("server.accept_ms", "ms", med(a.get(s + "accept_ms")))
    put("server.first_probe_ms", "ms", med(a.get(s + "first_probe_ms")))
    put("server.outcome_after_last_probe_ms", "ms",
        p(a.get(s + "outcome_after_last_probe_ms"), 99))
    slices = a.get(s + "slices_per_run") or [0]
    put("server.slices_per_run", "count", statistics.mean(slices))
    put("server.evictions", "count", n.get(s + "evictions", 0))
    put("server.resident_bytes", "bytes", n.get(s + "resident_bytes_max", 0))
    put("server.fairness_min_share", "ratio", med(a.get(s + "fairness")))
    put("server.overloaded_share", "ratio",
        n.get(s + "overloaded", 0) / max(1, n.get(s + "submits", 1)))
    put("server.generator_lag_ms_p99", "ms", p(a.get(s + "lag_ms"), 99))
    put("server.events_per_s", "events/s",
        n.get(s + "probe_events", 0) / max(1e-9, n.get(s + "wall_s", 1)))

    # Self time per layer, per job, from the traced half's spans.
    jobs = n.get("traced.jobs", 0)
    by_name, by_layer = M.self_times(spans)
    for layer in LAYERS:
        put("self.%s_us" % layer, "us",
            by_layer.get(layer, 0) / 1e3 / jobs if jobs else 0)
    untraced = n.get("untraced.wall_s", 0) / max(1, n.get("untraced.jobs", 1))
    traced = n.get("traced.wall_s", 0) / max(1, n.get("traced.jobs", 1))
    put("trace.overhead_pct", "%",
        (traced / untraced - 1) * 100 if untraced and traced else 0)
    return out, by_name, jobs


def self_time_table(by_name, jobs, workload, metrics):
    if not by_name or not jobs:
        return
    total = sum(by_name.values())
    log("self time per job, %s (%d traced jobs):" % (workload, jobs))
    for name, ns in sorted(by_name.items(), key=lambda kv: -kv[1]):
        log("  %-22s %12.1f us  %5.1f%%" % (name, ns / 1e3 / jobs,
                                          100.0 * ns / total))
    if workload == "cli-corpus":
        log("  unexplained residual (exec minus in-process replay): "
            "%.3f ms per job" % metrics["tools.residual_ms"][1])
    log("tracing overhead: %.1f%% (traced minus untraced time per job)"
        % metrics["trace.overhead_pct"][1])


def run_once(args):
    t0 = time.time()
    bdir = build_dir()
    build(bdir)
    h = Harness(bdir, t0 + RUN_BUDGET_S)
    common = ["--seed=%d" % args.seed, "--seconds=%g" % args.seconds]
    setups = []

    def setup_only():
        setups.append(h.run(args.workload, common + ["--setup-only"])
                      ["nums"]["setup_s"])

    # Set-ups before and after the measuring process's own, so a slow
    # stretch of the machine moves a few of them, not the median.
    if not args.trace:
        for _ in range(SETUP_EXTRA // 2):
            setup_only()
    spans_path = os.path.join(bdir, "spans-%s-%d.jsonl" % (args.workload,
                                                          os.getpid()))
    extra = ["--trace", "--spans-out=" + spans_path] if args.trace else []
    rec = h.run(args.workload, common + extra)
    setups.append(rec["nums"]["setup_s"])
    extra_info = {"fail_reasons": rec["fail_reasons"]}
    if args.trace:
        spans = load_spans(spans_path)
        metrics, by_name, jobs = per_layer(args.workload, rec, spans)
        self_time_table(by_name, jobs, args.workload, metrics)
        if os.path.exists(spans_path):
            os.remove(spans_path)
        eps = events_per_step(rec["nums"])
        if eps:
            extra_info["events_per_step"] = eps
            log("probe events per step: " + ", ".join(
                "%s %.3g" % kv for kv in eps.items()))
    else:
        for _ in range(SETUP_EXTRA - SETUP_EXTRA // 2):
            setup_only()
        metrics = end_to_end(rec, setups)
        extra_info["setups_s"] = setups
        a = rec["arrays"]
        if "host_ref_ms" in a:
            extra_info["host_ref_ms_p50"] = med(a["host_ref_ms"])
            extra_info["cc_ref_ms_p50"] = med(a["cc_ref_ms"])
            extra_info["raw_latency_ms_p50"] = med(a["latency_ms"])
    result = {
        "correct": bool(rec["correct"]),
        "attempted": int(rec["attempted"]),
        "failed": int(rec["failed"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (u, v) in metrics.items()},
    }
    record = dict(result, record="perfbench", workload=args.workload,
                  seconds=args.seconds, trace=int(args.trace),
                  provenance=provenance(bdir, args.seed), extra=extra_info)
    line = json.dumps(record, sort_keys=True)
    with open(os.path.join(bdir, "results.jsonl"), "a") as f:
        f.write(line + "\n")
    print(line)
    print(json.dumps(result), flush=True)


def repeat(args):
    """Steadiness self-check: args.repeat runs, seeds args.seed onwards."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for i in range(args.repeat):
        seed = args.seed + i
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--workload", args.workload, "--seed",
                              str(seed), "--seconds", "%g" % args.seconds,
                              "--trace", "0"],
                             stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        log("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())))
    print("%-22s %12s %12s %12s %8s %8s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for k, vs in values.items():
        m, q1, q3, spread = M.quartile_spread(vs)
        b = bounds.get(k)
        verdict = ("steady" if b and spread <= b / 3 else
                   "within bound" if b and spread <= b else "UNSTEADY")
        print("%-22s %12.5g %12.5g %12.5g %8.4f %8s  %s" % (
            k, m, q1, q3, spread, b, verdict))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--gen-expected", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.gen_expected or args.selftest:
        bdir = build_dir()
        build(bdir)
        h = Harness(bdir, time.time() + 600)
        mode = "gen-expected" if args.gen_expected else "selftest"
        cmd = [os.path.join(bdir, "pbharness"), mode, "--root=" + ROOT,
               "--work=" + os.path.join(bdir, "work", mode),
               "--monsem=" + os.path.join(bdir, "monsem_tools", "monsem"),
               "--steps=" + os.path.join(HERE, "expected.tsv")]
        sys.exit(subprocess.run(cmd, env=h.env).returncode)
    if not args.workload:
        ap.error("--workload is required")
    if args.repeat:
        repeat(args)
    else:
        run_once(args)


if __name__ == "__main__":
    main()
