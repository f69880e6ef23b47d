#!/usr/bin/env python3
"""Build and run fzmod's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 30 --trace 0

The script builds the Go program in this directory (a module of its own
that uses the repository's module through a replace directive) into
.bench_build, or $CARGO_TARGET_DIR when set, keeping the Go build cache and
every other file the toolchain writes there too, then runs it with the
given arguments. The program's last line of output is the JSON result.
"""

import os
import subprocess
import sys

# The program stops measuring after --seconds; this bounds set-up, the
# traced run's overruns and a wedged process.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "TMPDIR": os.path.join(build, "tmp"),
    })
    for d in ("home", "config", "cache", "tmp"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    exe = os.path.join(build, "perfbench")
    try:
        b = subprocess.run(["go", "build", "-o", exe, "."], cwd=here, env=env,
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if b.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    args = [exe, "--bench", os.path.join(root, "BENCHMARK.json"),
            "--out", os.path.join(build, "trace")] + sys.argv[1:]
    try:
        r = subprocess.run(args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
