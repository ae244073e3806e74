#!/usr/bin/env python3
"""Build the program and the DCCS query benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 dccsbench/run.py --workload small-s --seed 0 --seconds 30 --trace 0

The first run compiles the program through its own sbt build (offline, from
the local dependency cache) together with the benchmark, and caches the
resulting classpath under .bench_build/ keyed by a hash of the sources. Later
runs start the benchmark JVM directly. The benchmark JVM has pinned settings
(fixed heap, G1) and runs one client thread.

Standard output ends with one JSON line: {"correct", "attempted", "failed",
"metrics"}. Full results, spans and per-query counters go to
.bench_build/results/; the counters are kept per source hash, so only runs of
the same sources must repeat them. Build output goes to standard error.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("small-s", "large-s")

# The benchmark's own JVM settings: a fixed heap far below the machine's
# memory, the default collector named explicitly, and one client thread.
JAVA_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseG1GC"]

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Everything the compiled classpath depends on, relative to the checkout.
SOURCE_ROOTS = ("build.sbt", "project", "src/main", "jobs",
                "dccsbench/build.sbt", "dccsbench/project", "dccsbench/src")
SKIP_DIRS = {"target"}


def die(msg, code=2):
    print(f"dccsbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_hash():
    h = hashlib.sha256()
    for rel in SOURCE_ROOTS:
        top = os.path.join(ROOT, rel)
        paths = [top] if os.path.isfile(top) else []
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout and wait."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{cmd[0]} did not finish within {timeout} s", 1)
    return proc.returncode, out


def build(build_dir, stamp):
    """Compile program and benchmark; return the runtime classpath."""
    stamp_file = os.path.join(build_dir, "stamp")
    cp_file = os.path.join(build_dir, "classpath")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read().strip() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()

    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.override.build.repos=true", "-Dsbt.offline=true",
                "-Dsbt.server.autostart=false", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts.insert(1, f"-Dsbt.repository.config={repos}")
        env["SBT_OPTS"] = " ".join(opts)
    print("dccsbench: building program and benchmark with sbt", file=sys.stderr)
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(out[-4000:])
    if code != 0:
        die(f"sbt build failed with exit code {code}", 1)
    lines = [l for l in out.splitlines() if l and not l.startswith("[") and "classes" in l]
    if not lines:
        die("sbt printed no classpath", 1)
    os.makedirs(build_dir, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(lines[-1])
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return lines[-1]


def main():
    ap = argparse.ArgumentParser(description="DCCS query benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 keeps the presets' own seeds")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 600:
        die("--seconds must be between 1 and 600")

    for need in ("build.sbt", "src/main/scala/repro/core", "src/main/scala/repro/graphgen"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} not found: run from the root of a checkout of the program")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    stamp = source_hash()
    cp = build(build_dir, stamp)
    results = os.path.join(build_dir, "results")
    cmd = ["java", *JAVA_OPTS, "-cp", cp, "dccsbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", results,
           "--stamp", stamp[:16]]
    code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out)
        die(f"benchmark exited with code {code}", 1)
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
