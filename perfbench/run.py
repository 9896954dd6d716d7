#!/usr/bin/env python3
"""End-to-end benchmark of epa_cli (see README.md).

    python3 perfbench/run.py --workload sweep-packaged --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds the engine and the traced runner from source (Release, under
.bench_build/ at the repository root), prepares the workload, then
drives the built epa_cli in a closed loop: one client, one request in
flight, the next request sent once the previous one has exited and its
stdout is drained. Every request is checked against a reference. The
last stdout line is one JSON object: the end-to-end metrics with
--trace 0, the per-layer metrics of the traced in-process run with
--trace 1. Metric names and units come from BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
EPA_CLI = CMAKE_DIR / "epa" / "epa_cli"
TRACED = CMAKE_DIR / "perfbench_traced"

sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402

# Threads or processes a request runs at once (--jobs 4; 3 workers plus
# the coordinator). Fewer hardware threads than this = core-starved.
MAX_PARALLEL = 4
SETUP_REPEATS = 9
WARMUP_REQUESTS = 3
REQUEST_TIMEOUT_S = 60
# --trace 1 splits --seconds: this share for a short closed loop (for
# process.overhead_ms and the checks), the rest for perfbench_traced.
TRACE_E2E_SHARE = 0.3
# Speed normalization. On the 4-vCPU VM this was tuned on, the machine's
# speed drifted within minutes (orchestrate-suite's median went from 100
# to 155 ms and back inside one minute, search-relay's from 14 to 38 ms
# between two 30 s runs), which no run length averages out. A fixed
# calibration that runs no engine code tracks that drift: CAL_PROCS
# forked processes, each spinning CAL_ITERS iterations of a Python loop.
# Its wall time (first fork until all are reaped) follows both slower
# cores and cores taken by other tenants; its CPU time (the children's
# rusage) follows only slower cores. The calibration runs after every
# request, and the request's wall time is scaled by CAL_WALL_REF_MS / the
# calibration's wall time and its CPU time by CAL_CPU_REF_MS / the
# calibration's CPU time: times are reported at the speed where the
# calibration takes the reference times. Set-up, which runs just before
# the loop, takes the loop's median wall scale. A change to the engine
# moves the measured times, never the scale.
CAL_PROCS = MAX_PARALLEL
CAL_ITERS = 60000
CAL_WALL_REF_MS = 9.0
CAL_CPU_REF_MS = 28.0

PACKAGED_PINNED = {"injections": 509, "violations": 109, "exploitable": 66}


def workloads(seed):
    """name -> request argv, reference argv, exhaustive argv (coverage
    denominator), pinned totals, injection runs per request."""
    search = ["search", "--family", "fam-relay", "--budget", "150",
              "--json", "--seed", str(seed)]
    packaged_ref = ["sweep", "--json", "--jobs", "1"]
    return {
        "sweep-packaged": dict(
            argv=["sweep", "--json", "--jobs", "4"],
            reference=packaged_ref, exhaustive=None,
            pinned=PACKAGED_PINNED, runs=509),
        "orchestrate-suite": dict(
            argv=["orchestrate", "--all", "--workers", "3", "--data-plane",
                  "shm", "--json"],
            reference=packaged_ref, exhaustive=None,
            pinned=PACKAGED_PINNED, runs=509),
        "search-relay": dict(
            argv=search + ["--jobs", "4"],
            reference=search + ["--jobs", "1"],
            exhaustive=["sweep", "--family", "fam-relay", "--json",
                        "--jobs", "1"],
            pinned={"injections": 150, "vuln_classes_fired": 6}, runs=150),
    }


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---- build and environment -------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"engine sources not found in {ROOT}: the benchmark "
                         "builds epa_cli from the repository it sits in")
    jobs = str(min(MAX_PARALLEL, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(CMAKE_DIR), "-j", jobs]]
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))


def cache_value(key):
    for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def source_id():
    """The git commit when the checkout is a repository, else a digest
    of the engine and benchmark sources."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and (ROOT / ".git").exists():
            return head.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "examples", "perfbench"):
        files += [p for p in (ROOT / d).rglob("*") if p.is_file()]
    for p in sorted(files):
        if "__pycache__" in p.parts:
            continue
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return "source-sha1:" + h.hexdigest()


def environment():
    build_type = cache_value("CMAKE_BUILD_TYPE")
    sanitize = cache_value("EP_SANITIZE")
    flags = cache_value("CMAKE_CXX_FLAGS") + cache_value(
        "CMAKE_CXX_FLAGS_" + build_type.upper())
    if build_type not in ("Release", "RelWithDebInfo", "MinSizeRel"):
        raise BenchError(f"refusing to report from a '{build_type}' build")
    if sanitize or "-fsanitize" in flags:
        raise BenchError("refusing to report from a sanitizer build")
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "core_starved": nproc < MAX_PARALLEL,
            "build_type": build_type, "commit": source_id()}


# ---- one request -------------------------------------------------------------

def run_request(argv, env, cwd):
    """Run one request to completion. Returns (wall_ms, cpu_s, maxrss_kb,
    exit_code, stdout). Wall time runs from fork until the process has
    exited and its stdout is drained; CPU and peak RSS come from wait4 and
    include the workers the request reaped."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, env=env, cwd=cwd)
    fd = p.stdout.fileno()
    chunks = []
    deadline = t0 + REQUEST_TIMEOUT_S
    while True:
        ready, _, _ = select.select(
            [fd], [], [], max(0.0, deadline - time.perf_counter()))
        if not ready:
            p.kill()
            break
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    wall_ms = (time.perf_counter() - t0) * 1e3
    p.returncode = os.waitstatus_to_exitcode(status)
    return (wall_ms, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, p.returncode,
            b"".join(chunks).decode("utf-8", "replace"))


def calibration():
    """The fixed calibration (see CAL_WALL_REF_MS): (wall_ms, cpu_ms)."""
    t0 = time.perf_counter()
    pids = []
    for _ in range(CAL_PROCS):
        pid = os.fork()
        if pid == 0:
            x = 0
            for i in range(CAL_ITERS):
                x += i * i
            os._exit(0)
        pids.append(pid)
    cpu_s = 0.0
    for pid in pids:
        _, _, ru = os.wait4(pid, 0)
        cpu_s += ru.ru_utime + ru.ru_stime
    return (time.perf_counter() - t0) * 1e3, cpu_s * 1e3


class Workload:
    def __init__(self, name, seed):
        table = workloads(seed)
        if name not in table:
            raise BenchError(f"unknown workload '{name}' "
                             f"(one of {', '.join(table)})")
        self.name = name
        self.spec = table[name]
        self.work = BUILD / "work" / name
        self.tmp = None
        self.env = None
        self.setups = 0
        self.class_map = {}
        self.reference = None
        self.reference_ok = False
        self.reference_classes = set()
        self.exhaustive_classes = set()
        self.reference_file = self.work / "reference.json"

    def cli(self, args):
        return run_request([str(EPA_CLI)] + args, self.env, self.work)

    def setup(self):
        """Scratch directories, class map, reference, exhaustive
        coverage, warm-up requests. Returns its wall time in seconds.
        Scratch files (orchestrate leaves 21 plan arenas per request)
        stay until cleanup() at the end of the run."""
        t0 = time.perf_counter()
        self.setups += 1
        self.tmp = self.work / f"tmp{self.setups}"
        self.tmp.mkdir(parents=True)
        # TMPDIR keeps orchestrate's plan and lease files in the checkout.
        self.env = dict(os.environ, TMPDIR=str(self.tmp))
        classes = subprocess.run([str(TRACED), "classes"], capture_output=True,
                                 text=True, timeout=REQUEST_TIMEOUT_S)
        if classes.returncode:
            raise BenchError("perfbench_traced classes failed: " +
                             classes.stderr.strip())
        self.class_map = json.loads(classes.stdout)
        _, _, _, rc, out = self.cli(self.spec["reference"])
        if rc not in (0, 3):
            raise BenchError(f"reference request exited {rc}")
        self.reference = out
        self.reference_file.write_text(out)
        bad = benchlib.pinned_mismatches(out, self.spec["pinned"])
        self.reference_ok = not bad
        if bad:
            log(f"reference totals differ from the pinned ones: {bad}; "
                "every request counts as failed")
        self.reference_classes = benchlib.fired_classes(out, self.class_map)
        if self.spec["exhaustive"]:
            _, _, _, rc, ex = self.cli(self.spec["exhaustive"])
            if rc not in (0, 3):
                raise BenchError(f"exhaustive request exited {rc}")
            self.exhaustive_classes = benchlib.fired_classes(ex, self.class_map)
        else:
            self.exhaustive_classes = self.reference_classes
        if not self.exhaustive_classes:
            raise BenchError("the exhaustive reference fires no EAI class")
        for _ in range(WARMUP_REQUESTS):
            self.cli(self.spec["argv"])
        return time.perf_counter() - t0

    def closed_loop(self, seconds):
        """Requests back to back for `seconds`, each followed by the
        calibration. Returns the samples (wall_ms, cpu_s, maxrss_kb,
        calibration wall_ms, calibration cpu_ms) and per-request verdicts
        and coverage ratios."""
        samples, verdicts, coverage = [], [], []
        classes_by_output = {self.reference: self.reference_classes}
        deadline = time.perf_counter() + seconds
        while not samples or time.perf_counter() < deadline:
            wall, cpu, rss, rc, out = self.cli(self.spec["argv"])
            samples.append((wall, cpu, rss) + calibration())
            verdicts.append(benchlib.request_ok(rc, out, self.reference,
                                                self.reference_ok))
            if out not in classes_by_output:
                classes_by_output[out] = benchlib.fired_classes(
                    out, self.class_map)
            coverage.append(len(classes_by_output[out]) /
                            len(self.exhaustive_classes))
        return samples, verdicts, coverage

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)
        os.sync()


# ---- the two modes -----------------------------------------------------------

def end_to_end(wl, seconds):
    setups = [wl.setup() for _ in range(SETUP_REPEATS)]
    samples, verdicts, coverage = wl.closed_loop(seconds)
    runs = wl.spec["runs"]
    walls = [s[0] for s in samples]
    # At reference speed (see CAL_WALL_REF_MS): each figure is scaled by
    # the calibration that ran right after it, then the median is taken.
    p50 = statistics.median(s[0] * CAL_WALL_REF_MS / s[3] for s in samples)
    cpu_s = statistics.median(s[1] * CAL_CPU_REF_MS / s[4] for s in samples)
    # Set-up ran just before the loop: it takes the loop's median scale.
    setup = statistics.median(setups) * CAL_WALL_REF_MS / statistics.median(
        s[3] for s in samples)
    failed = sum(1 for ok in verdicts if not ok)
    metrics = {
        "cmd_p50_ms": p50,
        "runs_per_s": runs / (p50 / 1e3),
        "cpu_per_run_us": cpu_s / runs * 1e6,
        "peak_rss_mb": statistics.median(s[2] for s in samples) / 1024.0,
        "setup_s": setup,
        "success_ratio": 1.0 - benchlib.fail_ratio(verdicts),
        "coverage_ratio": statistics.median(coverage),
    }
    notes = {"requests": len(walls), "fail_ratio": failed / len(walls),
             "setup_samples": len(setups),
             "calibration_p50_ms": statistics.median(s[3] for s in samples),
             "calibration_cpu_p50_ms":
                 statistics.median(s[4] for s in samples),
             "raw_cmd_p50_ms": statistics.median(walls),
             "raw_cpu_per_run_us":
                 statistics.median(s[1] for s in samples) / runs * 1e6,
             "raw_setup_s": statistics.median(setups)}
    tail = benchlib.tail_percentile(walls)
    if tail:
        notes["raw_cmd_tail_ms"] = {"percentile": tail[0], "value": tail[1],
                                    "samples_beyond": tail[2]}
    notes["samples"] = samples
    return metrics, len(walls), failed, notes


def traced(wl, seconds, seed):
    wl.setup()
    samples, verdicts, _ = wl.closed_loop(seconds * TRACE_E2E_SHARE)
    cmd_p50 = statistics.median(s[0] for s in samples)
    spans = BUILD / "results" / f"spans-{wl.name}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(TRACED), "run", "--workload", wl.name, "--seed", str(seed),
           "--seconds", str(seconds * (1 - TRACE_E2E_SHARE)),
           "--epa-cli", str(EPA_CLI), "--work-dir", str(wl.work / "traced"),
           "--reference", str(wl.reference_file), "--spans", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=wl.work,
                          env=wl.env, timeout=150)
    if proc.returncode:
        raise BenchError(f"perfbench_traced exited {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if res["build_type"] != cache_value("CMAKE_BUILD_TYPE") or res["sanitizer"]:
        raise BenchError("perfbench_traced reports a different or sanitizer build")
    metrics = dict(res["metrics"])
    metrics["process.overhead_ms"] = cmd_p50 - res["untraced_p50_ms"]
    failed = sum(1 for ok in verdicts if not ok) + res["mismatches"]
    attempted = len(verdicts) + res["copies"]
    span_rows = [json.loads(line) for line in spans.read_text().splitlines()]
    notes = {"e2e_requests": len(verdicts), "traced_requests": res["requests"],
             "untraced_p50_ms": res["untraced_p50_ms"],
             "traced_p50_ms": res["traced_p50_ms"], "spans_file": str(spans),
             "self_us_per_request": benchlib.layer_self_times(span_rows)}
    return metrics, attempted, failed, notes


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    try:
        if a.self_test:
            return self_test()
        if not a.workload:
            ap.error("--workload is required")
        declared = declared_metrics(a.trace)
        wl = Workload(a.workload, a.seed)
        build()
        wl.cleanup()  # what an interrupted run left behind
        env = environment()
        try:
            run = traced(wl, a.seconds, a.seed) if a.trace else end_to_end(
                wl, a.seconds)
        finally:
            wl.cleanup()
        measured, attempted, failed, notes = run
        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            raise BenchError("metrics not measured: " + ", ".join(missing))
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "environment": env, "notes": notes,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    out = BUILD / "results" / f"{a.workload}-seed{a.seed}-trace{a.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {a.workload} seed={a.seed} trace={a.trace} "
          f"nproc={env['nproc']} core_starved={env['core_starved']} "
          f"build={env['build_type']} commit={env['commit']}")
    print("# the seed reaches only `search --seed`; the sweeps are "
          "exhaustive and seed-independent")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for key, value in notes.items():
        if key != "samples":
            print(f"# {key}: {json.dumps(value)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def self_test():
    """The benchmark's own tests: Python unit tests, then the C++ tests
    (built on demand)."""
    import unittest
    suite = unittest.defaultTestLoader.discover(str(HERE / "tests"),
                                                pattern="test_*.py")
    if not unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful():
        return 1
    build()
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "--target",
                    "perfbench_tests"], check=True, stdout=sys.stderr)
    return subprocess.run([str(CMAKE_DIR / "perfbench_tests")],
                          cwd=CMAKE_DIR).returncode


if __name__ == "__main__":
    sys.exit(main())
