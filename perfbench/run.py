#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload netpipe-pair --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (release profile) into $CARGO_TARGET_DIR
(default `.bench_build`), then runs it. Timed runs (`--trace 0`) are pinned
to one CPU: on a shared host a run that spreads over CPUs, above all the
parallel window driver's per-window hand-offs between threads, swings by
tens of percent with other tenants' load. Pinned, the window driver runs
its shards inline. The traced run is not pinned, so its `par.*` metrics
measure the threaded driver. The binary prints a run manifest
and human-readable lines, and as its last stdout line one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`. Build output goes
to stderr. Exits non-zero, without a result line, when the simulator's
sources are not next to this directory or the build or run fails.
"""

import argparse
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("netpipe-pair", "torus-uniform-observed", "redstorm-neighbor-par")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the simulator's and the benchmark's sources, so a result
    names the exact code it measured even outside a git checkout."""
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", HERE / "Cargo.toml"]
    for top in (ROOT / "crates", HERE / "src"):
        files += [p for p in top.rglob("*") if p.suffix in (".rs", ".toml")]
    h = hashlib.sha256()
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_rev():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    out = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="overrides the workload's default seed")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(f"simulator sources not found next to {HERE.name}/ (need Cargo.toml and crates/)")

    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--host", f"{platform.node()} {platform.machine()}",
        "--rev", git_rev(),
        "--src-digest", source_digest(),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        cmd += ["--spans-out", str(target / f"perfbench-spans-{args.workload}.tsv")]
    pin = None
    if not args.trace:
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, preexec_fn=pin)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
