#!/usr/bin/env python3
"""Build the perfbench program from source and run one benchmark pass.

Run from the repository root:

    python3 perfbench/run.py --workload page-update --seed 1 --seconds 10 --trace 0

The Go build (compiler cache, temporary files and the binary) stays in the
build directory: $CARGO_TARGET_DIR when set, else .bench_build at the
repository root. The binary is keyed by a digest of every Go source file
and go.mod in the repository, so it is rebuilt whenever the code changes.
The last line of standard output is the run's JSON result; the exit code
is the program's.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """sha256 over the path and content of every Go source and go.mod."""
    paths = []
    for d, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        paths += [os.path.join(d, f) for f in files if f.endswith(".go") or f == "go.mod"]
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(os.path.relpath(p, ROOT).encode() + b"\0")
        with open(p, "rb") as f:
            h.update(f.read())
        h.update(b"\0")
    return h.hexdigest()


def git_commit():
    """The checkout's commit, or "none" when it is not a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)

    digest, commit = source_digest(), git_commit()
    key = hashlib.sha256((digest + commit).encode()).hexdigest()[:16]
    binary = os.path.join(build, "perfbench-" + key)
    if not os.path.exists(binary):
        ldflags = "-X main.commit=%s -X main.sourceDigest=%s" % (commit, digest)
        tmp = binary + ".tmp"
        try:
            r = subprocess.run(["go", "build", "-buildvcs=false", "-ldflags", ldflags, "-o", tmp, "."],
                               cwd=HERE, env=env, stdout=sys.stderr, timeout=840)
        except (OSError, subprocess.SubprocessError) as e:
            print("perfbench: build failed: %s" % e, file=sys.stderr)
            return 1
        if r.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        os.replace(tmp, binary)

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["-spans", os.path.join(build, "spans-%s-seed%d.txt" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
