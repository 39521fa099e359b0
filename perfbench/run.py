#!/usr/bin/env python3
"""The repository benchmark: one command per workload run.

    python3 perfbench/run.py --workload bulk_encode --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run builds the xorec library,
examples/net_server and the perfbench driver from source into the build
directory ($CARGO_TARGET_DIR if set, else .bench_build). Each run is a fresh
process with a private, empty jit artifact directory (mode 0700) and no
xorec environment overrides; set-up is timed in further fresh processes, at
least eight and three seconds' worth both before and after the measured run,
and reported as their median. With --trace 0 the last stdout line is a JSON
object carrying every end-to-end metric; with --trace 1 it carries the
per-layer metrics of a traced run (spans kept under <build>/traces/). Exit
code 0 on success, 1 when any output was wrong, any in-process request failed
or the run could not complete, 2 on usage errors.
"""
import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["bulk_encode", "degraded_read", "wire_mixed"]
SETUP_MIN_REPEATS = 8  # set-up processes on each side of the measured run,
SETUP_MIN_SECONDS = 3.0  # and at least this long on each side
RUN_LIMIT_S = 170  # one workload run, set-up processes included


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no xorec source tree next to perfbench/ (run from a repository checkout)", 2)
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    with open(log, "a") as out:
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
                fail("configure failed, see " + log)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", bdir, "-j", jobs, "--target", "xbench", "net_server",
               "perfbench_tests"]
        if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT) != 0:
            fail("build failed, see " + log)
    return os.path.join(bdir, "xbench"), os.path.join(bdir, "examples", "net_server")


def fresh_env(workdir):
    """A private, empty jit artifact directory and no xorec overrides."""
    jit = os.path.join(workdir, "jit")
    os.mkdir(jit, 0o700)
    os.chmod(jit, 0o700)
    env = {k: v for k, v in os.environ.items() if not k.startswith("XOREC_")}
    env["XOREC_JIT_CACHE_DIR"] = jit
    return env


def run_xbench(args, workdir, deadline):
    """Runs one xbench process in its own process group; returns
    (notes, result). Kills the group (net_server children too) on timeout."""
    os.mkdir(workdir, 0o700)
    proc = subprocess.Popen(args + ["--workdir", workdir], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=fresh_env(workdir),
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("xbench timed out: " + " ".join(args))
    if proc.returncode != 0:
        sys.stderr.write(err)
        fail("xbench exited with code %d" % proc.returncode)
    lines = out.strip().splitlines()
    if not lines:
        fail("xbench printed no result")
    return lines[:-1], json.loads(lines[-1])


def run_workload(xbench, server, bdir, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_LIMIT_S
    runs = os.path.join(bdir, "runs")
    os.makedirs(runs, exist_ok=True)
    tag = "%s-%d-%d" % (workload, seed, os.getpid())
    base = [xbench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--server-bin", server]
    dirs = []
    setups = []

    def time_setups():
        until = time.monotonic() + SETUP_MIN_SECONDS
        for i in itertools.count():
            if i >= SETUP_MIN_REPEATS and time.monotonic() >= until:
                break
            dirs.append(os.path.join(runs, "%s-setup%d" % (tag, len(setups))))
            _, r = run_xbench(base + ["--setup-only"], dirs[-1], deadline)
            setups.append(r["metrics"]["setup_s"]["value"])

    try:
        # Set-up processes run before and after the measured run, so their
        # median spans more than one spell of host contention.
        if not trace:
            time_setups()
        dirs.append(os.path.join(runs, tag))
        notes, result = run_xbench(base, dirs[-1], deadline)
        if not trace:
            time_setups()
        if trace:
            spans = os.path.join(dirs[-1], "spans.jsonl")
            if os.path.isfile(spans):
                tdir = os.path.join(bdir, "traces")
                os.makedirs(tdir, exist_ok=True)
                shutil.copy(spans, os.path.join(tdir, "%s-seed%d.jsonl" % (workload, seed)))
        else:
            notes.append("setup_s samples (fresh processes): " +
                         ", ".join("%.4f" % s for s in setups) +
                         "; in-run set-up %.4f s" % result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    finally:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
    return notes, result


def report(workload, notes, result):
    print("== %s" % workload)
    for line in notes:
        print(line)
    for name, m in result["metrics"].items():
        print("%-30s %.6g %s" % (name, m["value"], m["unit"]))
    attempted, failed = result["attempted"], result["failed"]
    print("%-30s %.6g ratio (%d failed or wrong of %d attempted)" %
          ("error_rate", failed / attempted if attempted else 1.0, failed, attempted))


def accepted(workload, result):
    """Whether a run passes: every output right, at least one request, and
    on the in-process workloads no failed request either. wire_mixed may
    leave requests unanswered on ladder rungs past saturation; those count
    as misses in its slo_attain, and only a wrong answer fails it."""
    if not result["correct"] or result["attempted"] < 1:
        return False
    return workload == "wire_mixed" or result["failed"] == 0


def test_accepted():
    good = {"correct": True, "attempted": 10, "failed": 0}
    threw = dict(good, failed=1)
    wrong = dict(good, correct=False, failed=1)
    assert accepted("bulk_encode", good) and accepted("wire_mixed", good)
    assert not accepted("bulk_encode", threw) and not accepted("degraded_read", threw)
    assert accepted("wire_mixed", threw)
    assert not any(accepted(w, wrong) for w in WORKLOADS)
    assert not accepted("bulk_encode", dict(good, attempted=0))
    print("run.py accepted(): ok")


def self_test(bdir):
    test_accepted()
    build(bdir)
    sys.exit(subprocess.call([os.path.join(bdir, "perfbench_tests")]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    bdir = build_dir()
    if a.self_test:
        self_test(bdir)
    if not a.workload or a.seconds < 1:
        fail("--workload and --seconds >= 1 are required", 2)
    xbench, server = build(bdir)
    ok = True
    summary = {}
    for w in (WORKLOADS if a.workload == "all" else [a.workload]):
        notes, result = run_workload(xbench, server, bdir, w, a.seed, a.seconds, a.trace)
        report(w, notes, result)
        ok = ok and accepted(w, result)
        summary[w] = result
    print(json.dumps(summary[a.workload] if a.workload != "all" else summary))
    sys.stdout.flush()
    if not ok:
        print("perfbench: output mismatch, failed request or none attempted", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
