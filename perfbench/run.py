#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload repro --seed 1 --seconds 25 --trace 0

Without --workload, all three workloads run in turn. Run from the root of a
checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout. The benchmark's output passes through
unchanged; its last line is the result JSON. Each result is also saved, with
the host stamp, under <build dir>/results/ for perfbench/compare.py.

    python3 perfbench/run.py --selftest

checks the benchmark itself: a tampered reference must fail a run, and the
seed must move the simd_mixed stream but not the repro references.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("repro", "sharded_8gpu", "simd_mixed")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configure once, then build incrementally; build logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    binary_dir = out / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (binary_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(binary_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(binary_dir), "-j", jobs])
    # Keep the compiler's temporary files inside the build directory too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd), res.returncode or 1)
    exe = binary_dir / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def source_id():
    """The commit when this is a git checkout, else a digest of src/."""
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if res.returncode == 0 and res.stdout.strip():
                return res.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_bench(exe, args, echo=True):
    """Run the benchmark binary from the checkout root, streaming its
    stdout. Returns (exit code, stdout lines)."""
    proc = subprocess.Popen([str(exe)] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if echo:
                print(line, end="", flush=True)
    finally:
        proc.stdout.close()
        code = proc.wait()
    return code, lines


def save_record(out, args, lines):
    """Keep the result beside its host stamp for compare.py."""
    stamp = next((json.loads(l[len("stamp "):]) for l in lines
                  if l.startswith("stamp ")), None)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "stamp": stamp,
              "result": json.loads(lines[-1]), "time": time.time()}
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")


def selftest(exe, out):
    """The benchmark must notice a tampered reference, and its seed must move
    the simd_mixed stream but not the repro references."""
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("PASS " if cond else "FAIL ") + what, flush=True)
        ok = ok and cond

    tampered = out / "selftest-ref"
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(HERE / "ref", tampered)
    ref = tampered / "sharded_8gpu.ref"
    lines = ref.read_text().splitlines()
    key, value = lines[0].split("\t", 1)
    lines[0] = f"{key}\t{value}1"
    ref.write_text("\n".join(lines) + "\n")
    code, got = run_bench(exe, ["--workload", "sharded_8gpu", "--seed", "1",
                                "--seconds", "1", "--trace", "0",
                                "--ref-dir", str(tampered),
                                "--work-dir", os.path.relpath(out, ROOT)],
                          echo=False)
    result = json.loads(got[-1]) if code == 0 and got else {}
    expect(result.get("failed", 0) > 0 and result.get("correct") is False,
           f"tampered reference ({key}) makes failed_frac non-zero: "
           f"failed={result.get('failed')} of {result.get('attempted')}")

    streams = []
    for seed in (1, 2):
        code, got = run_bench(exe, ["--stream", "--seed", str(seed)], echo=False)
        streams.append("\n".join(got) if code == 0 else None)
    expect(streams[0] is not None and streams[0] != streams[1],
           "the seed moves the simd_mixed stream")

    recorded = []
    for seed in (1, 2):
        d = out / f"selftest-repro-seed{seed}"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        code, _ = run_bench(exe, ["--workload", "repro", "--seed", str(seed),
                                  "--record", "--ref-dir", str(d)], echo=False)
        recorded.append((d / "repro.ref").read_text() if code == 0 else None)
    expect(recorded[0] is not None and recorded[0] == recorded[1]
           and recorded[0] == (HERE / "ref" / "repro.ref").read_text(),
           "the seed does not move the repro references")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record", action="store_true",
                   help="rewrite the workload's reference file under perfbench/ref")
    args = p.parse_args()

    out = build_dir()
    exe = build(out)
    if args.selftest:
        return selftest(exe, out)
    if args.record:
        if not args.workload:
            fail("--record needs --workload")
        code, _ = run_bench(exe, ["--workload", args.workload, "--record",
                                  "--ref-dir", str(HERE / "ref")])
        return code
    # Relative to the checkout root (the binary's working directory): the
    # daemon's unix socket lives there, and socket paths are short.
    work_dir = os.path.relpath(out, ROOT)
    # Without --workload, every workload runs in turn.
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        code, lines = run_bench(exe, [
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--ref-dir", str(HERE / "ref"), "--work-dir", work_dir,
            "--commit", source_id()])
        if code != 0 or not lines:
            return code or 1
        save_record(out, args, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())
