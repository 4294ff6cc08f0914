#!/usr/bin/env python3
"""Build and run ECFault's benchmark from the root of a repository checkout.

    python3 perfbench/run.py --workload fig2-campaign --seed 1 --seconds 20 --trace 0

Workloads: fig2-campaign, payload-rw, codec-stream. The Go program in this
directory is built into the build directory ($CARGO_TARGET_DIR, default
.bench_build) with the Go cache, temporary files and tool configuration kept
there too, so a run writes nothing outside the checkout. The program's last
line of standard output is the JSON result; see README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def source_revision():
    """The git commit when there is one, else a digest of the Go sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: no repository around %s (go.mod and internal/ are missing)" % HERE, file=sys.stderr)
        return 2
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="",
    )
    exe = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    args = list(argv)
    workload = seed = None
    for flag, value in zip(args, args[1:]):
        if flag == "--workload":
            workload = value
        elif flag == "--seed":
            seed = value
    spans = os.path.join(build, "spans-%s-seed%s.jsonl" % (workload, seed))
    try:
        ran = subprocess.run([exe, *args, "--source", source_revision(), "--spans", spans], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
