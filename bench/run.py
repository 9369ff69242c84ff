#!/usr/bin/env python3
"""The plde benchmark: seeded workloads, end-to-end metrics, per-layer spans.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
`src/`, nothing needs installing.  Each workload runs in its own process,
pinned to one CPU, as a single-thread closed loop with one client: the
next equation is sent only after the previous one is answered.

Workloads (see workloads.py for the generators and why each was chosen):
  dispersion  q = (n+k+a)(n+k+a+s)(3n+2k+b), s in {2, 4, 6}: strip rewriting
              with factored/polyring bookkeeping does nearly all the work.
  geometry    r=3 supports with 9-12 points and r=4 supports with 6-8
              points: Fourier-Motzkin in lp_feasible does most of the work.
  census      120 small r=2 / r=3 equations: per-call overheads, frames, and
              the dense products of verify.check_solution.
  cli         the six bundled equations: import, loader and CLI cost.

A run with --trace 0 measures, in this order:
  setup_s          median over fresh processes of `import plde` plus parsing
                   the workload's equations (bytecode cached in .bench_build);
  bound_p50_ms,    median over equations of each equation's median latency of
  check_p50_ms     combined_bound and of check_bound_covers, over at least
                   MIN_PASSES whole passes of the closed loop, more while they
                   fit in LIBRARY_SHARE of --seconds;
  equations_per_s  equations bounded and certified per second, at each
                   equation's median latency;
  cli_p50_ms       median over equations of the median wall time of
                   `plde bound --json FILE` in a fresh process, interpreter
                   start included, for a fixed subset of the equations, over
                   whole passes in the rest of --seconds;
  peak_rss_mb      peak resident memory of the benchmark process.
Times are scaled to a reference interpreter speed (see SpeedClock); the
raw medians are kept in the run record.  The invariance_lattice cache is
cleared before every request, so each one pays the cold-cache cost a
command-line user pays.

Every bound is certified against the equation's known solution with
check_bound_covers (a failure is a violation), every CLI output must equal
the library report, and sys1/sys2 must match the hand-written answers of
the paper.  Violations, exceptions and mismatches count as failed requests;
the tail latencies, violations and failed fraction are printed per run.

A run with --trace 1 makes one untraced and one traced pass over the same
requests (library calls and in-process `plde.cli.main`) and reports the
per-layer metrics of tracer.PER_LAYER; the traced reports must hash to the
same digest as the untraced ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Run records (with the run's
metadata) and trace spans are written under .bench_build/bench/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "bench"

sys.pycache_prefix = str(OUT / "pycache")   # keep bytecode out of the source tree
sys.path.insert(0, str(BENCH))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
MIN_PASSES = 2
REFERENCE_LOOP_S = 0.018
GROUP_S = 0.25
LIBRARY_SHARE = 0.72
CHILD_TIMEOUT_S = 120
CONSOLE_SCRIPT = "import sys; from plde.cli import main; sys.exit(main())"
END_TO_END = (("bound_p50_ms", "ms"), ("equations_per_s", "1/s"), ("check_p50_ms", "ms"),
              ("cli_p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Failures:
    """Failed requests by kind, with the first few messages kept for the log."""

    def __init__(self):
        self.count = 0
        self.violations = 0
        self.messages = []

    def add(self, what, violation=False):
        self.count += 1
        self.violations += violation
        if len(self.messages) < 10:
            self.messages.append(what)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def import_library():
    """Import plde from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "plde" / "__init__.py").is_file():
        sys.exit("bench: no library source at %s" % (src / "plde"))
    sys.path.insert(0, str(src))
    import plde
    import plde.cli

    if Path(plde.__file__).resolve().parent != (src / "plde").resolve():
        sys.exit("bench: plde imported from %s, not from this checkout" % plde.__file__)
    return plde


def run_metadata(workload, seed, seconds, trace, instances):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "child_bytecode": "cached in .bench_build/bench/pycache",
        "equations": len(instances),
        "terms": sum(len(i.equation["terms"]) for i in instances),
        "strata": {s: sum(i.stratum == s for i in instances)
                   for s in sorted({i.stratum for i in instances})},
    }


def percentile_tail(samples):
    """Highest percentile with at least ten samples beyond it: (percentile, value), or None."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Library:
    """The workload's equations as library objects, and one request per call."""

    def __init__(self, plde, instances):
        from plde.equation import PLDE
        from plde.factored import FactoredPoly
        from plde.polyring import parse_rational

        self.plde = plde
        self.instances = instances
        self.equations = [PLDE.from_json(i.equation) for i in instances]
        self.solutions = [parse_rational(i.solution_text(), i.variables) for i in instances]
        self.den_factors = [FactoredPoly.from_json(
            {"unit": "1", "factors": [[f, 1] for f in i.den_factors]}, i.variables)
            for i in instances]
        self.cache = plde.spread.invariance_lattice   # the lru_cache object itself
        self.reports = {}                             # instance index -> report JSON text
        self.cache_hits = 0
        self.cache_misses = 0

    def clear_cache(self):
        info = self.cache.cache_info()
        self.cache_hits += info.hits
        self.cache_misses += info.misses
        self.cache.cache_clear()

    def request(self, i, failures, parse=False):
        """Bound and certify equation i; returns (bound seconds, check seconds) or None."""
        inst = self.instances[i]
        plde = self.plde
        self.clear_cache()
        perf = time.perf_counter
        try:
            eq = plde.equation.PLDE.from_json(inst.equation) if parse else self.equations[i]
            t0 = perf()
            report = plde.bounds.combined_bound(eq)
            t1 = perf()
            verdicts = plde.verify.check_bound_covers(eq, self.solutions[i],
                                                      self.den_factors[i], report)
            t2 = perf()
        except Exception as exc:  # a failed request is counted, the loop goes on
            failures.add("%s: %s: %s" % (inst.name, type(exc).__name__, exc))
            return None
        bad = [str(f) for f, v in verdicts.items() if not v["ok"]]
        if bad:
            failures.add("%s: bound misses %s" % (inst.name, ", ".join(bad)), violation=True)
        text = json.dumps(report.to_json(), sort_keys=True)
        first = self.reports.setdefault(i, text)
        if first != text:
            failures.add("%s: report differs between requests" % inst.name)
        mismatch = workloads.reference_mismatch(inst.name, report.to_json())
        if mismatch:
            failures.add("%s: reference mismatch: %s" % (inst.name, mismatch))
        return t1 - t0, t2 - t1

    def digest(self):
        h = hashlib.sha256()
        for i in sorted(self.reports):
            h.update(self.reports[i].encode())
            h.update(b"\n")
        return h.hexdigest()


def check_cli_output(lib, i, stdout, failures):
    inst = lib.instances[i]
    try:
        out = json.loads(stdout)
    except ValueError:
        failures.add("%s: CLI printed no JSON" % inst.name)
        return
    if json.dumps(out, sort_keys=True) != lib.reports.get(i):
        failures.add("%s: CLI report differs from the library report" % inst.name)
    mismatch = workloads.reference_mismatch(inst.name, out)
    if mismatch:
        failures.add("%s: CLI reference mismatch: %s" % (inst.name, mismatch))


class SpeedClock:
    """Wall times scaled to a fixed reference speed of the interpreter.

    The machine is shared, and for seconds to minutes at a time all Python
    code here runs up to 40 % slower; the same run repeated minutes apart
    differs by that much, which no repetition inside one run averages
    away.  So every group of requests lasting GROUP_S or more is bracketed
    by a fixed loop of exact fraction arithmetic (the library's kind of
    work, in the benchmark's own code, so no library change moves it), and
    each time in the group is multiplied by REFERENCE_LOOP_S over the mean
    of the two bracketing loop times.  The reported times are those of a
    machine on which the loop takes REFERENCE_LOOP_S.  Measured on a shared
    2-CPU virtual machine: over 150 s, the medians of ten 15-s windows of
    one equation's bound time spread by 15 % raw and by 1.6 % scaled.
    """

    def __init__(self):
        self._loop()                                   # warm up
        self.loops = [self._loop()]
        self.pending = []
        self.group_start = time.perf_counter()

    @staticmethod
    def _loop():
        t0 = time.perf_counter()
        acc = Fraction(0)
        table = {}
        for i in range(1, 6000):
            acc += Fraction(i % 97, i % 89 + 1)
            table[(i % 101, i % 7)] = acc.numerator % 1000
        return time.perf_counter() - t0

    def add(self, sink, value):
        """Append value to sink once the group it belongs to is bracketed."""
        self.pending.append((sink, value))
        if time.perf_counter() - self.group_start >= GROUP_S:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        self.loops.append(self._loop())
        scale = REFERENCE_LOOP_S / ((self.loops[-2] + self.loops[-1]) / 2)
        for sink, value in self.pending:
            sink.append(value * scale)
        self.pending = []
        self.group_start = time.perf_counter()


def whole_passes(order_rng, indices, budget_s, one_request):
    """Closed loop over whole passes: at least MIN_PASSES, more while one more fits.

    Returns the wall time of each pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        order = list(indices)
        order_rng.shuffle(order)
        gc.collect()
        t0 = time.perf_counter()
        for i in order:
            one_request(i)
        passes.append(time.perf_counter() - t0)
        if (len(passes) >= MIN_PASSES
                and time.perf_counter() - start + passes[-1] > budget_s):
            return passes


def per_equation_median(samples):
    """Median over equations of each equation's median latency.

    Each equation is one cluster of samples; a plain median over all
    samples would sit on the noisy edge between two clusters.
    """
    return statistics.median(statistics.median(times) for times in samples.values())


@contextlib.contextmanager
def written_inputs(args, lib):
    """The workload's equations as files: (CLI subset indices, all-in-one file, CLI files)."""
    workdir = OUT / ("inputs-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    cli_indices = [lib.instances.index(i)
                   for i in workloads.cli_subset(args.workload, lib.instances)]
    everything = workdir / "equations.json"
    everything.write_text(json.dumps([i.equation for i in lib.instances]), encoding="utf-8")
    paths = {}
    for i in cli_indices:
        paths[i] = workdir / ("%03d-%s.json" % (i, lib.instances[i].name))
        paths[i].write_text(json.dumps(lib.instances[i].equation, indent=1), encoding="utf-8")
    try:
        yield cli_indices, everything, paths
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()


def measure_setup(equations_file, clock, failures):
    """Scaled and raw seconds of SETUP_SAMPLES fresh set-up processes."""
    samples, raw = [], []
    for k in range(SETUP_SAMPLES + 1):    # the first one fills the bytecode cache
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(equations_file)],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            failures.add("setup probe exited %d: %s" % (proc.returncode, proc.stderr[-300:]))
            continue
        if k:
            raw.append(float(proc.stdout.split()[0]))
            clock.add(samples, raw[-1])
    clock.flush()
    return samples, raw


def run_timed(args, lib, rng, failures):
    # per equation index: scaled milliseconds, and raw ones for the run record
    bound_ms, check_ms, cli_ms = defaultdict(list), defaultdict(list), defaultdict(list)
    raw_bound_ms, raw_cli_ms = defaultdict(list), defaultdict(list)
    library_requests = cli_requests = 0
    clock = SpeedClock()
    with written_inputs(args, lib) as (cli_indices, equations_file, paths):
        setup, raw_setup = measure_setup(equations_file, clock, failures)

        def library_request(i):
            nonlocal library_requests
            library_requests += 1
            times = lib.request(i, failures)
            if times is not None:
                clock.add(bound_ms[i], 1000 * times[0])
                clock.add(check_ms[i], 1000 * times[1])
                raw_bound_ms[i].append(1000 * times[0])

        indices = range(len(lib.instances))
        passes = whole_passes(rng, indices, LIBRARY_SHARE * args.seconds, library_request)
        clock.flush()
        env = child_env()

        def cli_request(i):
            nonlocal cli_requests
            cli_requests += 1
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, "bound", "--json",
                                   str(paths[i])], env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                failures.add("%s: CLI exited %d: %s"
                             % (lib.instances[i].name, proc.returncode, proc.stderr[-300:]))
                return
            clock.add(cli_ms[i], 1000 * wall)
            raw_cli_ms[i].append(1000 * wall)
            check_cli_output(lib, i, proc.stdout, failures)

        cli_passes = whole_passes(rng, cli_indices, (1 - LIBRARY_SHARE) * args.seconds,
                                  cli_request)
        clock.flush()
    if not (bound_ms and cli_ms and setup):
        return None
    typical_pass_ms = sum(statistics.median(bound_ms[i]) + statistics.median(check_ms[i])
                          for i in bound_ms)
    metrics = {
        "bound_p50_ms": per_equation_median(bound_ms),
        "equations_per_s": 1000 * len(bound_ms) / typical_pass_ms,
        "check_p50_ms": per_equation_median(check_ms),
        "cli_p50_ms": per_equation_median(cli_ms),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    every_bound = [t for times in bound_ms.values() for t in times]
    every_cli = [t for times in cli_ms.values() for t in times]
    extra = {"library_requests": library_requests, "cli_requests": cli_requests,
             "library_passes_s": passes, "cli_passes_s": cli_passes,
             "bound_tail_ms": percentile_tail(every_bound),
             "cli_tail_ms": percentile_tail(every_cli),
             "raw_bound_p50_ms": per_equation_median(raw_bound_ms),
             "raw_cli_p50_ms": per_equation_median(raw_cli_ms),
             "raw_setup_s": statistics.median(raw_setup),
             "reference_loop_s": REFERENCE_LOOP_S,
             "loop_s_quartiles": statistics.quantiles(clock.loops, n=4)}
    return metrics, extra, library_requests + cli_requests


def run_traced(args, lib, rng, failures):
    """One untraced and one traced pass over identical requests; per-layer metrics."""
    order = list(range(len(lib.instances)))
    rng.shuffle(order)

    def one_pass(tr, cli_indices, paths):
        lib.reports = {}
        gc.collect()
        t0 = time.perf_counter()
        for i in order:
            if tr is not None:
                tr.req = i
            lib.request(i, failures, parse=True)
        for i in cli_indices:
            if tr is not None:
                tr.req = i
            lib.clear_cache()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = lib.plde.cli.main(["bound", "--json", str(paths[i])])
            if code != 0:
                failures.add("%s: CLI main returned %d" % (lib.instances[i].name, code))
            else:
                check_cli_output(lib, i, buf.getvalue(), failures)
        return time.perf_counter() - t0, lib.digest()

    with written_inputs(args, lib) as (cli_indices, _, paths):
        untraced_s, untraced_digest = one_pass(None, cli_indices, paths)
        tr = tracing.Tracer()
        wrapped = tr.install()
        lib.cache_hits = lib.cache_misses = 0
        try:
            traced_s, traced_digest = one_pass(tr, cli_indices, paths)
        finally:
            tr.uninstall()
    tr.cache_hits, tr.cache_misses = lib.cache_hits, lib.cache_misses
    metrics = tracing.per_layer_metrics(tr, traced_s / untraced_s)
    if traced_digest != untraced_digest:
        failures.add("traced reports differ from untraced ones")
    calls, _ = tr.layer_totals()
    for layer, n in zip(tracing.LAYERS, calls):
        if n == 0:
            failures.add("layer %s shows no calls" % layer)
    covered, roots = tr.self_time_check("bounds.combined_bound")
    if roots <= 0 or abs(covered - roots) > tracing.SELF_TIME_TOLERANCE * roots:
        failures.add("layer self times %.6f s do not add up to combined_bound %.6f s"
                     % (covered, roots))
    spans_file = OUT / ("trace-%s-%d.jsonl.gz" % (args.workload, args.seed))
    tr.write(spans_file)
    extra = {"wrapped_functions": wrapped, "spans": len(tr.spans), "spans_file": str(spans_file),
             "untraced_s": untraced_s, "traced_s": traced_s,
             "digest_untraced": untraced_digest, "digest_traced": traced_digest,
             "self_time_sum_s": covered, "combined_bound_s": roots,
             "self_time_tolerance": tracing.SELF_TIME_TOLERANCE,
             "moves": {name: moves for name, _, _, moves in tracing.PER_LAYER}}
    return metrics, extra, 2 * (len(order) + len(cli_indices))


def pin_to_one_cpu():
    """Run this process and its children on one CPU, the last one allowed.

    On a shared 2-CPU machine the two CPUs are often unequally contended;
    a child process placed on the other CPU than the last sample's took up
    to 40 % longer (fresh `plde bound` processes were bimodal), and the
    calibration loop only describes the CPU it ran on.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return cpus[-1]


def run_workload(args):
    cpu = pin_to_one_cpu()
    plde = import_library()
    OUT.mkdir(parents=True, exist_ok=True)
    instances = workloads.generate(args.workload, args.seed, ROOT)
    meta = run_metadata(args.workload, args.seed, args.seconds, args.trace, instances)
    meta["pinned_cpu"] = cpu
    rng = random.Random("order-%s-%d" % (args.workload, args.seed))
    failures = Failures()
    lib = Library(plde, instances)
    if args.trace:
        result = run_traced(args, lib, rng, failures)
    else:
        result = run_timed(args, lib, rng, failures)
    if result is None:
        for msg in failures.messages:
            print("failure: %s" % msg, file=sys.stderr)
        sys.exit("bench: no successful request to measure")
    values, extra, attempted = result
    if args.trace:
        metrics = values
    else:
        units = dict(END_TO_END)
        metrics = {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END}
    digest = extra.get("digest_untraced") or lib.digest()
    summary = {
        "violations": failures.violations,
        "failed_frac": failures.count / max(attempted, 1),
        "report_digest": digest,
        "failures": failures.messages,
    }
    print("workload %s, seed %d: %d equations, %d terms"
          % (args.workload, args.seed, meta["equations"], meta["terms"]))
    moves = extra.get("moves", {})
    for name, m in metrics.items():
        print("  %-32s %14.6f %-6s %s" % (name, m["value"], m["unit"],
                                         "moves: " + moves[name] if name in moves else ""))
    print("  %-32s %14d count" % ("violations", summary["violations"]))
    print("  %-32s %14.6f ratio" % ("failed_frac", summary["failed_frac"]))
    for key in ("bound_tail_ms", "cli_tail_ms"):
        if key in extra:
            tail = extra[key]
            n = extra["library_requests" if key == "bound_tail_ms" else "cli_requests"]
            print("  %-32s %s" % (key, "p%.1f = %.3f ms (n=%d)" % (tail[0], tail[1], n)
                                  if tail else "n/a: %d samples, 20 needed" % n))
    print("  report digest %s" % digest)
    for msg in failures.messages:
        print("  failure: %s" % msg)
    record = {"meta": meta, "summary": summary, "extra": extra, "metrics": metrics}
    (OUT / ("run-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8")
    print("meta %s" % json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": failures.count == 0, "attempted": attempted,
                      "failed": failures.count, "metrics": metrics}))


def run_all(args):
    """Every workload in its own process, so no cache or heap carries over."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit("bench: workload %s exited %d" % (name, proc.returncode))
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
