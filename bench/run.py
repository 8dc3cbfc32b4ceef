"""The schurtrails benchmark: one seeded workload, timed and checked exactly.

    python3 bench/run.py --workload jt_oracle --seed 1 --seconds 20 --trace 0

One closed-loop client runs the workload's checks one after another, each
only after the previous one returned.  A batch is one pass over the checks
and starts with a cold Schur cache, because a script or CLI user pays that
cost on every run; batches repeat until --seconds have passed and at least
MIN_BATCHES have run.  Every check's answer is tested exactly in every batch.

--trace 0 prints the end-to-end metrics: set-up time, batch time, the median
check's latency, the tail latency of one check and peak memory.  Times are
given at the reference speed (bench/refspeed.py): a check's time in this
process is scaled by the reference loop timed just before and just after
it, and the time of a child process by the loop the child times itself.
The raw timings are in the context line.  --trace 1 alternates untraced
batches with batches under bench/tracer.py and prints the per-layer metrics,
including the tracing overhead; its spans go to
.bench_out/spans-<workload>-<seed>.json.

The second-to-last line of standard output is a JSON context object
(machine, Python, source revision, sample counts, ratio bases); the last line
is the JSON result.  Check failures are written to standard error.  Exit code
2 means the benchmark could not run, for instance because src/schurtrails is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from refspeed import REF_NOMINAL_S, at_reference_speed, child_report, parse_child_report, timed_reference

perf = time.perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CLI_ENTRY = os.path.join(HERE, "cli_entry.py")
SPANS_DIR = os.path.join(ROOT, ".bench_out")

MIN_BATCHES = 5
SETUP_PROBES = 9
STARTUP_PROBES = 3
MEASURE_LIMIT_S = 120.0  # start no batch that would run past this
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
CLI_TIMEOUT_S = 120


def tail_percentile(checks_per_batch):
    """Highest ladder percentile with at least ten samples beyond it in MIN_BATCHES batches."""
    samples = MIN_BATCHES * checks_per_batch
    for q in TAIL_LADDER:
        if samples * (100 - q) / 100.0 >= 10:
            return q
    return TAIL_LADDER[-1]


def percentile(values, q):
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------- running checks

class Context:
    """What a check may use besides the library: the CLI as a subprocess."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.invocation_s = 0.0
        self.stdout_bytes = 0
        # (seconds, the child's reference-loop seconds) of each CLI call of
        # the current check, and what the child's own loops cost it
        self.children = []
        self.ref_cost_s = 0.0

    def cli(self, argv, stdin=None):
        env = dict(os.environ)
        env.pop("SCHURTRAILS_THREADS", None)  # measure the users' default pool
        env.pop("BENCH_TRACE", None)
        if self.tracer is not None:
            env["BENCH_TRACE"] = "1"
        env["BENCH_REF"] = "1"
        started = perf()
        proc = subprocess.run(
            [sys.executable, CLI_ENTRY] + list(argv),
            input=stdin,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=CLI_TIMEOUT_S,
        )
        took = perf() - started
        report, stderr = parse_child_report(proc.stderr)
        if report is not None:
            took -= report["ref_cost_s"]
            self.ref_cost_s += report["ref_cost_s"]
            self.children.append((took, report["ref_s"]))
        self.invocation_s += took
        self.stdout_bytes += len(proc.stdout.encode())
        if self.tracer is not None:
            stderr = self._absorb_trace(stderr)
        if proc.returncode != 0:
            raise RuntimeError("CLI %r exited %d: %s" % (argv, proc.returncode, stderr.strip()[-400:]))
        return proc.stdout

    def _absorb_trace(self, stderr):
        from cli_entry import TRACE_PREFIX

        rest = []
        for line in stderr.splitlines():
            if not line.startswith(TRACE_PREFIX):
                rest.append(line)
                continue
            payload = json.loads(line[len(TRACE_PREFIX):])
            self.tracer.merge(payload["snapshot"])
            base = len(self.tracer.spans)
            check = self.tracer._check
            for span in payload["spans"]:
                span = dict(span, id=span["id"] + base, check=check)
                span["parent"] = check if span["parent"] is None else span["parent"] + base
                self.tracer.spans.append(span)
        return "\n".join(rest)


def run_batch(checks, ctx, identities, failures):
    """One pass over the checks from a cold Schur cache.

    Returns (wall seconds, per-check seconds, per-check seconds at the
    reference speed, reference-loop seconds).  The reference loop runs
    before each check and after the last one, outside the checks' time; the
    part of a check spent waiting for CLI children is scaled by the loops
    they timed, the rest by the loops around the check.
    """
    identities._schur_cached.cache_clear()
    tracer = ctx.tracer
    spans, refs = [], []
    for check in checks:
        refs.append(timed_reference())
        ctx.children, ctx.ref_cost_s = [], 0.0
        t0 = perf()
        if tracer is not None:
            tracer.begin_check(check.label)
        try:
            check.run(ctx)
        except Exception:
            failures.append(check.label)
            sys.stderr.write("check failed: %s\n%s" % (check.label, traceback.format_exc()))
        finally:
            if tracer is not None:
                tracer.end_check()
        spans.append((perf() - t0 - ctx.ref_cost_s, ctx.children))
    refs.append(timed_reference())
    if tracer is not None:
        tracer.count_schur_cache()
    latencies, scaled = [], []
    for i, (took, children) in enumerate(spans):
        in_process = took - sum(seconds for seconds, _ in children)
        latencies.append(took)
        scaled.append(
            at_reference_speed(in_process, refs[i], refs[i + 1])
            + sum(at_reference_speed(seconds, ref, ref) for seconds, ref in children)
        )
    return sum(latencies), latencies, scaled, refs


def run_batches(checks, identities, failures, seconds):
    """Untraced batches until the time is up and MIN_BATCHES have run.

    Returns (walls, latencies, scaled latencies, refs), the last three one
    list per batch.
    """
    walls, latencies, scaled, refs = [], [], [], []
    started = perf()
    while len(walls) < MIN_BATCHES or perf() - started < seconds:
        if walls and perf() - started + walls[-1] > MEASURE_LIMIT_S:
            break
        wall, lat, lat_scaled, ref = run_batch(checks, Context(), identities, failures)
        walls.append(wall)
        latencies.append(lat)
        scaled.append(lat_scaled)
        refs.append(ref)
    return walls, latencies, scaled, refs


def run_traced(checks, identities, failures, seconds):
    """Alternate untraced and traced batches, so drift in machine speed hits both alike."""
    from tracer import Tracer

    tracer = Tracer()
    ctx = Context(tracer)
    plain, traced = [], []
    started = perf()
    while len(traced) < 2 or perf() - started < seconds:
        if traced and perf() - started + plain[-1] + traced[-1] > MEASURE_LIMIT_S:
            break
        plain.append(run_batch(checks, Context(), identities, failures)[0])
        tracer.install()
        try:
            traced.append(run_batch(checks, ctx, identities, failures)[0])
        finally:
            tracer.uninstall()
    return tracer, ctx, plain, traced


# ---------------------------------------------------------------- set-up and context

def timed_subprocess(argv):
    started = perf()
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=CLI_TIMEOUT_S)
    return perf() - started


def setup_seconds(workload, seed):
    """Time from process start to package imported and inputs generated.

    Returns (at reference speed, raw), each the median over SETUP_PROBES
    fresh processes.  Each probe reports when its set-up ended (perf_counter
    is CLOCK_MONOTONIC, so that reads on this process's clock) and the
    reference loop it timed right after.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--setup-only"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        started = perf()
        proc = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        report, _ = parse_child_report(proc.stdout)
        took = report["setup_end"] - started
        raw.append(took)
        scaled.append(at_reference_speed(took, report["ref_s"], report["ref_s"]))
    return statistics.median(scaled), statistics.median(raw)


def cli_startup_seconds():
    code = "import sys; sys.path.insert(0, %r); import schurtrails.cli" % SRC
    return statistics.median(timed_subprocess([sys.executable, "-c", code]) for _ in range(STARTUP_PROBES))


def git_revision():
    """HEAD of the checkout when it is a git work tree, else None; read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = os.path.join(ROOT, ".git", name)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                bits = line.split()
                if len(bits) == 2 and bits[1] == name:
                    return bits[0]
    return None


def source_digest():
    """sha256 over src/**/*.py, so results from non-git checkouts still name their source."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def peak_rss_mb(in_subprocesses):
    who = resource.RUSAGE_CHILDREN if in_subprocesses else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------- metrics

def end_to_end(scaled, setup_s, q, in_subprocesses):
    """scaled holds one list of per-check seconds at the reference speed for each batch."""
    pooled = [v for batch in scaled for v in batch]
    per_check = [statistics.median(runs) for runs in zip(*scaled)]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(batch) for batch in scaled), "s"),
        "check_p50_ms": (statistics.median(per_check) * 1000.0, "ms"),
        "check_tail_ms": (percentile(pooled, q) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(in_subprocesses), "MB"),
    }


RATIO_BASES = {
    "polyring.determinant.share": "check time, summed over traced checks",
    "polyring.mul.term_pairs_per_s": "polyring.mul.self_s",
    "schur.enumerate_ssyt.tableaux_per_s": "schur.enumerate_ssyt.self_s",
    "identities.schur_of.hit_ratio": "identities.schur_of.calls",
    "trace.overhead_frac": "untraced wall_s of the same run",
}


def per_layer(tracer, batches, ctx, startup_s, overhead):
    calls = lambda name: tracer.calls.get(name, 0) / batches  # noqa: E731
    own = lambda name: tracer.self_s.get(name, 0.0) / batches  # noqa: E731
    count = lambda name: tracer.counts.get(name, 0) / batches  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731

    m = {}
    m["polyring.determinant.calls"] = (calls("polyring.determinant"), "count")
    m["polyring.determinant.self_s"] = (own("polyring.determinant"), "s")
    for d in range(2, 7):
        m["polyring.determinant.self_s.d%d" % d] = (count("polyring.determinant.self_s.d%d" % d), "s")
    m["polyring.determinant.share"] = (
        ratio(count("polyring.determinant.inclusive_s"), count("check.duration_s")), "frac")
    m["polyring.mul.calls"] = (calls("polyring.mul"), "count")
    m["polyring.mul.self_s"] = (own("polyring.mul"), "s")
    m["polyring.mul.term_pairs"] = (count("polyring.mul.term_pairs"), "count")
    m["polyring.mul.term_pairs_per_s"] = (ratio(count("polyring.mul.term_pairs"), own("polyring.mul")), "1/s")
    m["polyring.add.self_s"] = (own("polyring.add"), "s")
    m["polyring.complete_homogeneous.self_s"] = (own("polyring.complete_homogeneous"), "s")

    m["schur.enumerate_ssyt.calls"] = (calls("schur.enumerate_ssyt"), "count")
    m["schur.enumerate_ssyt.tableaux"] = (count("schur.enumerate_ssyt.tableaux"), "count")
    m["schur.enumerate_ssyt.self_s"] = (own("schur.enumerate_ssyt"), "s")
    m["schur.enumerate_ssyt.tableaux_per_s"] = (
        ratio(count("schur.enumerate_ssyt.tableaux"), own("schur.enumerate_ssyt")), "1/s")
    m["schur.enumerate_families.families"] = (count("schur.enumerate_families.families"), "count")
    m["schur.enumerate_families.self_s"] = (own("schur.enumerate_families"), "s")
    m["schur.path_weight.self_s"] = (own("schur.path_weight"), "s")

    m["identities.schur_of.calls"] = (calls("identities.schur_of"), "count")
    m["identities.schur_of.hits"] = (count("identities.schur_of.hits"), "count")
    m["identities.schur_of.misses"] = (count("identities.schur_of.misses"), "count")
    m["identities.schur_of.hit_ratio"] = (
        ratio(count("identities.schur_of.hits"), calls("identities.schur_of")), "frac")
    m["identities.schur_of.miss_s"] = (count("identities.schur_of.miss_s"), "s")
    m["identities.verify.self_s"] = (own("identities.verify"), "s")
    m["identities.audit.objects"] = (count("identities.audit.objects"), "count")
    m["identities.audit.self_s"] = (own("identities.audit"), "s")
    m["identities.orbit.patterns"] = (count("identities.orbit.patterns"), "count")
    m["identities.orbit.objects"] = (count("identities.orbit.objects"), "count")
    m["identities.orbit.self_s"] = (own("identities.orbit"), "s")

    m["trails.calls"] = (sum(v for k, v in tracer.calls.items() if k.startswith("trails.")) / batches, "count")
    for name in ("build_graph", "trail_at_terminal", "recolour"):
        m["trails.%s.calls" % name] = (calls("trails." + name), "count")
        m["trails.%s.self_s" % name] = (own("trails." + name), "s")
    m["trails.trail_at_terminal.steps"] = (count("trails.trail_at_terminal.steps"), "count")
    m["trails.recolour.flipped"] = (count("trails.recolour.flipped"), "count")
    for name in ("all_trails", "terminal_matching", "count_noncrossing_matchings"):
        m["trails.%s.self_s" % name] = (own("trails." + name), "s")

    m["partitions.self_s"] = (own("partitions"), "s")
    m["cli.startup_s"] = (startup_s, "s")
    m["cli.invocation_s"] = (ctx.invocation_s / batches, "s")
    m["cli.stdout_bytes"] = (ctx.stdout_bytes / batches, "bytes")
    m["svg.render_svg.calls"] = (calls("svg.render_svg"), "count")
    m["svg.render_svg.self_s"] = (own("svg.render_svg"), "s")
    m["svg.render_svg.bytes"] = (count("svg.render_svg.bytes"), "bytes")
    m["trace.overhead_frac"] = (overhead, "frac")
    return m


def write_spans(workload, seed, spans):
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, "spans-%s-%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump(spans, fh)
    return os.path.relpath(path, ROOT)


# ---------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schurtrails", "__init__.py")):
        sys.stderr.write("bench: no schurtrails sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import schurtrails.identities as identities
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write("bench: unknown workload %r; choose from %s\n" % (args.workload, ", ".join(workloads.WORKLOADS)))
        return 2
    checks = workloads.make_checks(args.workload, args.seed)
    if args.setup_only:
        print(child_report(setup_end=perf()))
        return 0

    in_subprocesses = args.workload == "cli_sweep"
    setup_s, raw_setup_s = setup_seconds(args.workload, args.seed)
    for check in checks:
        check.prepare()
    q = tail_percentile(len(checks))
    failures = []
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_revision(),
        "source_sha256": source_digest(),
        "checks_per_batch": len(checks),
        "ref_nominal_s": REF_NOMINAL_S,
        "raw_setup_s": raw_setup_s,
    }

    if args.trace == 0:
        walls, latencies, scaled, refs = run_batches(checks, identities, failures, args.seconds)
        metrics = end_to_end(scaled, setup_s, q, in_subprocesses)
        pooled = [v for batch in latencies for v in batch]
        all_refs = [v for batch in refs for v in batch]
        context.update(
            batches=len(walls),
            batch_walls_s=[round(w, 4) for w in walls],
            samples=len(pooled),
            tail_percentile=q,
            samples_beyond_tail=sum(1 for v in pooled if v > percentile(pooled, q)),
            raw_wall_s=statistics.median(walls),
            raw_check_p50_ms=statistics.median(statistics.median(runs) for runs in zip(*latencies)) * 1000.0,
            raw_check_tail_ms=percentile(pooled, q) * 1000.0,
            ref_median_s=statistics.median(all_refs),
            ref_quartiles_s=statistics.quantiles(all_refs, n=4),
        )
    else:
        tracer, ctx, plain, traced = run_traced(checks, identities, failures, args.seconds)
        overhead = statistics.mean(traced) / statistics.mean(plain) - 1.0
        metrics = per_layer(tracer, len(traced), ctx, cli_startup_seconds(), overhead)
        context.update(
            batches=len(plain) + len(traced),
            traced_batches=len(traced),
            ratio_bases=RATIO_BASES,
            spans=write_spans(args.workload, args.seed, tracer.spans),
        )
        walls = plain + traced

    attempted = len(walls) * len(checks)
    context["failed_frac"] = len(failures) / attempted
    print(json.dumps({"context": context}, sort_keys=True))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
