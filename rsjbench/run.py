#!/usr/bin/env python3
"""RSJoin benchmark: one workload per run, each in its own JVM.

    python3 rsjbench/run.py --workload line5 [--seed 42] [--seconds 10] [--trace 0|1]

Run it from the root of a checkout. The first run builds the harness and the
engines from the repository's sources with sbt (rsjbench/build.sbt); later
runs reuse that build for as long as the sources are unchanged.

Each run starts one JVM with a fixed heap, so that one workload's numbers
never depend on which engines ran before it in the same JVM. The standard
output lists every check and metric with its unit and ends in one JSON line:

    {"correct": true, "attempted": ..., "failed": 0, "metrics": {...}}

`--trace 0` gives the end-to-end metrics of BENCHMARK.json, `--trace 1` the
per-layer ones. Exit status: 0 when every insert and output check passed,
1 when one failed, 2 when the benchmark could not be built or started.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
STAMP = os.path.join(TARGET, "rsjbench-build.json")
WORKLOADS = ["line5", "line3-kN", "line3-kN-sjoin", "qz-opt", "stream-line3"]

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

JVM_OPTIONS = [
    # A fixed heap and young generation: GC sizing that adapts during a run
    # made pass times wander between runs.
    "-Xms2g", "-Xmx2g", "-Xmn1g", "-XX:+UseParallelGC", "-XX:-UseAdaptiveSizePolicy",
    "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages", "-XX:-UsePerfData",
    # Spark on Java 17 needs these (the list spark-submit passes).
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg, code=2):
    print(f"rsjbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, relative to the checkout root."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    return sorted(os.path.relpath(f, ROOT) for f in files)


def sources_hash():
    h = hashlib.sha256()
    for rel in source_files():
        h.update(rel.encode() + b"\0")
        with open(os.path.join(ROOT, rel), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout or
    when this script is terminated, and wait for it either way."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)

    def stop(*_):
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit(1)

    old = signal.signal(signal.SIGTERM, stop)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        return None, None
    finally:
        signal.signal(signal.SIGTERM, old)
    return p.returncode, out


def build():
    """Classpath of the built harness; builds with sbt when sources changed."""
    digest = sources_hash()
    try:
        with open(STAMP) as f:
            stamp = json.load(f)
        if stamp["hash"] == digest:
            return stamp["classpath"]
    except (OSError, ValueError, KeyError):
        pass
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    print("rsjbench: building with sbt", file=sys.stderr)
    code, out = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env,
                            stdout=subprocess.PIPE, text=True)
    if code is None:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if code != 0:
        sys.stderr.write(out[-4000:])
        fail(f"build failed with status {code}")
    lines = [l for l in out.splitlines() if l and not l.startswith("[") and ".jar" in l]
    if not lines:
        fail("build printed no classpath")
    os.makedirs(TARGET, exist_ok=True)
    with open(STAMP, "w") as f:
        json.dump({"hash": digest, "classpath": lines[-1]}, f)
    return lines[-1]


def expected_metrics(trace):
    """Metric names BENCHMARK.json asks for in this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail(f"no engine sources under {os.path.join(ROOT, 'src', 'main', 'scala')}; "
             "run from a checkout of the repository")
    if not os.environ.get("SPARK_HOME"):
        fail("SPARK_HOME must name the Spark distribution")
    classpath = build()

    work = os.path.join(TARGET, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    argfile = os.path.join(work, "classpath.args")
    with open(argfile, "w") as f:
        f.write("-cp\n" + classpath + "\n")
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, *JVM_OPTIONS, f"-Djava.io.tmpdir={work}", "@" + argfile, "rsjbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work]
    try:
        code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=work, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(out)
        fail(f"{args.workload} printed no result (status {code})", 1)
    want = expected_metrics(args.trace == 1)
    if want is not None and list(result["metrics"]) != want:
        print(f"metrics {list(result['metrics'])} differ from BENCHMARK.json's {want}",
              file=sys.stderr)
        result["correct"] = False
        result["failed"] += 1
        code = code or 1
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
