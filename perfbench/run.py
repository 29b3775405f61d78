#!/usr/bin/env python3
"""CBNet benchmark: build the workload program, run it, gate it, report.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload hpc-saturated --seed 1 \
        --seconds 30 --trace 0

--trace 0 runs untraced repetitions, each in a fresh process, until
--seconds have passed (at least three), checks them and prints the
end-to-end metrics.  --trace 1 runs the separate traced pass instead and
prints the per-layer metrics.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the lines before
it record the host and every repetition.  The exit code is 0 only when
every check passed.  NOTES.md explains the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("hpc-saturated", "forest-1m", "serve-drift")
EXE = os.path.join("_build", "default", "perfbench", "cbbench.exe")
WORK_DIR = ".perfbench_work"
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
BUDGET_S = 170  # stop starting repetitions well inside the 180 s limit

# Fields of a repetition that are host measurements; every other field
# is simulated (or a digest of simulated state) and must repeat exactly.
HOST_FIELDS = ("setup_s", "serve_s", "cores", "ocaml")


class BenchError(Exception):
    pass


def spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, os.pardir, "BENCHMARK.json")) as f:
        return json.load(f)


def require_checkout():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(path):
            raise BenchError(
                "not a CBNet source checkout (missing %s); run from its root"
                % path)
    if shutil.which("dune") is None:
        raise BenchError("dune is not installed")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/cbbench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("build failed")


def host_record():
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return {"cores": os.cpu_count(), "commit": commit,
            "source_sha256": h.hexdigest()[:16]}


def child(mode, workload, seed, size, log):
    """Run one cbbench process and return its JSON result."""
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed),
           "--size", size, "--log", log]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s %s timed out" % (mode, workload))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError("%s %s exited with %d"
                         % (mode, workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s %s printed nothing" % (mode, workload))
    return json.loads(lines[-1])


def repeat(mode, args, log, minimum):
    """Fresh processes until --seconds have passed (at least minimum)."""
    results = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(results) >= minimum and (elapsed >= args.seconds
                                        or elapsed >= BUDGET_S):
            return results
        results.append(child(mode, args.workload, args.seed, args.size, log))


def outcome_errors(rep):
    errors = []
    if rep.get("check") != "ok":
        errors.append("final tree check: %s" % rep.get("check"))
    if rep["failed"] != 0 or rep["delivered"] != rep["requests"]:
        errors.append("%d of %d requests not delivered"
                      % (rep["requests"] - rep["delivered"], rep["requests"]))
    return errors


def gate(reps):
    """Correctness and determinism gate over the repetitions of one run.

    Every repetition must deliver every request and pass the structural
    check on each final tree, and every field that is not a host time
    (simulated statistics, latency quantiles, tree digest, heap peak)
    must be identical across repetitions.  Returns a list of errors.
    """
    errors = []
    if not reps:
        return ["no repetitions"]
    for i, rep in enumerate(reps):
        errors += ["rep %d: %s" % (i, e) for e in outcome_errors(rep)]
    first = reps[0]
    for i, rep in enumerate(reps[1:], 1):
        if set(rep) != set(first):
            errors.append("rep %d: fields differ from rep 0" % i)
            continue
        for key in sorted(first):
            if key not in HOST_FIELDS and rep[key] != first[key]:
                errors.append("rep %d: %s is %r, rep 0 had %r"
                              % (i, key, rep[key], first[key]))
    return errors


def end_to_end(reps):
    r = reps[0]
    m = r["requests"]
    return {
        "msgs_per_s": statistics.median(x["requests"] / x["serve_s"]
                                        for x in reps),
        "setup_s": statistics.median(x["setup_s"] for x in reps),
        "heap_peak_mb": r["heap_words"] * 8 / 2 ** 20,
        "work_per_msg": r["work"] / m,
        "rotations_per_msg": r["rotations"] / m,
        "msgs_per_round": r["delivered"] / r["makespan"],
        "latency_rounds_p50": float(r["latency_rounds_p50"]),
        "latency_rounds_p99": float(r["latency_rounds_p99"]),
        "delivered_ratio": r["delivered"] / m,
    }


def per_layer(traced, names):
    errors = []
    values = {}
    for name in names:
        samples = [t[name] for t in traced if t.get(name) is not None]
        if len(samples) != len(traced):
            errors.append("traced pass did not report %s" % name)
        else:
            values[name] = statistics.median(samples)
    return values, errors


def measure(args):
    bench = spec()
    os.makedirs(WORK_DIR, exist_ok=True)
    log = os.path.join(WORK_DIR, "%s-%d.log" % (args.workload, os.getpid()))
    try:
        if args.trace:
            runs = repeat("traced", args, log, 1)
            errors = []
            for i, t in enumerate(runs):
                errors += ["traced %d: %s" % (i, e) for e in outcome_errors(t)]
            values, missing = per_layer(
                runs, [m["name"] for m in bench["per_layer"]])
            errors += missing
            metrics_spec = bench["per_layer"]
        else:
            runs = repeat("rep", args, log, MIN_REPS)
            errors = gate(runs)
            values = end_to_end(runs)
            metrics_spec = bench["end_to_end"]
    finally:
        if os.path.exists(log):
            os.remove(log)
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]}
               for m in metrics_spec}
    attempted = sum(r["requests"] for r in runs)
    failed = sum(r["requests"] - r["delivered"] for r in runs)
    return runs, errors, {"correct": not errors, "attempted": attempted,
                          "failed": failed, "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny is for the benchmark's own tests")
    args = p.parse_args(argv)
    try:
        require_checkout()
        build()
        runs, errors, result = measure(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2
    host = dict(host_record(), ocaml=runs[0].get("ocaml"))
    print(json.dumps({"host": host, "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "size": args.size, "repetitions": runs}))
    for e in errors:
        sys.stderr.write("perfbench: check failed: %s\n" % e)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
