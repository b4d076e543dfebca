#!/usr/bin/env python3
"""Build and run the job-level benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

The Go program in this directory is built against the repository's
sources (its go.mod replaces module sbgp with the parent directory) into
.bench_build/, with the Go build cache and temporary files kept there too,
so a run reads and writes only inside the checkout. Every argument is
passed to the program; see main.go and BENCHMARK.json. A failed build
exits non-zero without printing a result.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """SHA-256 over the repository's Go sources, so results can be tied
    to the code they measured even where no git metadata exists."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "gotmp"), ("GOPATH", "gopath"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOPROXY="off", GOFLAGS="-mod=mod", GOTOOLCHAIN="local", GOWORK="off")
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    env["PERFBENCH_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_SHA256"] = source_digest()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
