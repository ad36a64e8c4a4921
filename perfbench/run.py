"""pgfree benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sweep-random --seed 3 --seconds 15 --trace 0

Run it from the root of a source checkout: the program under test is
imported from that checkout's ``src/``.  A run sets the workload up, runs
one warm-up op, then runs ops back to back (a closed loop, one client) for
``--seconds`` seconds, checking every output.  Each op runs under a time
cap; an op that passes it counts as failed, as does an op that raises or
fails its output check.

``--trace 0`` reports the end-to-end metrics.  Their timings are in
reference seconds: each op's wall time divided by the slowdown factor that
``speed.py`` samples around and during that op, so that the machine's own
speed swings do not read as changes of the program.  The measured values
are printed beside them.  ``setup_s`` is the median of three set-ups, this
process's own and two in fresh interpreters, import included.  The median
op latency is printed but is not a metric: under the machine's slow and
fast phases op times fall into two clusters, and the median jumps between
them from run to run, while p90 and throughput stay steady.

``--trace 1`` runs ops untraced for half the time, replays the same ops
with span wrappers installed, and reports per-layer self time and calls
per processed set, the ratios named in ``tracing.py``, and the tracing
overhead, all as measured.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name each metric with its unit, the error rate, and the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 3  # this process's own set-up plus fresh-interpreter repeats


def use_checkout_source() -> None:
    """Import pgfree from this checkout's src/, and only from there."""
    if not (SRC / "pgfree" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pgfree sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pgfree

    if Path(pgfree.__file__).resolve().parent != SRC / "pgfree":
        raise SystemExit(f"perfbench: imported pgfree from {pgfree.__file__}, not {SRC}")


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op that passed its time cap.

    A BaseException, so that no ``except Exception`` in the program under
    test can swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(workload, i: int, fails: dict):
    """Run op i under the workload's time cap and check its output.

    Returns (seconds, sets, output or None).  A failure is counted in
    ``fails`` by kind and never propagates.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    kind = None
    sets = 0
    output = None
    try:
        signal.setitimer(signal.ITIMER_REAL, workload.cap_s)
        try:
            sets, output = workload.op(i)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        kind = "timeout"
    except Exception:  # the loop must go on; the failure is reported
        kind = "error"
        traceback.print_exc(file=sys.stderr)
    finally:
        signal.signal(signal.SIGALRM, previous)
    dt = time.perf_counter() - t0
    if kind is None:
        try:
            reason = workload.check(i, output)
        except Exception:
            reason = traceback.format_exc(limit=1).strip().splitlines()[-1]
        if reason is not None:
            kind = "wrong"
            print(f"op {i}: wrong output: {reason}", file=sys.stderr)
    if kind is not None:
        fails[kind] = fails.get(kind, 0) + 1
        return dt, 0, None
    return dt, sets, output


def closed_loop(workload, seconds: float, fails: dict, count: int | None = None,
                before_op=None) -> list:
    """Run ops 0, 1, ... until `seconds` have passed (at least one op), or
    exactly `count` ops, calling `before_op` before each.  Returns per-op
    (seconds, sets, output)."""
    ops = []
    t0 = time.perf_counter()
    while (len(ops) < count) if count is not None else (
        not ops or time.perf_counter() - t0 < seconds
    ):
        if before_op is not None:
            before_op()
        ops.append(run_op(workload, len(ops), fails))
    return ops


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def set_up(workload, seed: int, workdir: Path, tracer=None):
    """Import pgfree, build `workload` (a name in WORKLOADS, or a factory
    that takes the seed), make its inputs, and run one warm-up op.

    With a tracer, the input generation is traced into it.
    """
    use_checkout_source()
    from workloads import WORKLOADS

    if isinstance(workload, str):
        if workload not in WORKLOADS:
            raise SystemExit(f"perfbench: unknown workload {workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
        workload = WORKLOADS[workload]
    w = workload(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    restored = tracing.install(tracer) if tracer is not None else []
    try:
        w.setup(workdir)
    finally:
        tracing.uninstall(restored)
    w.warmup()
    return w


def timed_set_up(workload, seed: int, workdir: Path):
    """Set up under the speed sampler.  Returns the workload and the set-up
    time in reference and in measured seconds."""
    t0 = time.perf_counter()
    with SpeedSampler() as speed:
        w = set_up(workload, seed, workdir)
    raw = time.perf_counter() - t0
    return w, raw / speed.factor, raw


def probe_set_up(name: str, seed: int) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, import included, in reference
    and in measured seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["raw_s"]


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        info["cpu"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    import numpy

    info["numpy"] = numpy.__version__
    info["commit"] = _commit()
    return info


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None  # not a git checkout


def end_to_end(ops, factors: list[float]) -> tuple[dict, dict]:
    """Every end-to-end metric but setup_s, and the printed-only median
    latency, as (reference value, unit, measured value); `factors` holds
    each op's slowdown factor."""
    times = [dt for dt, _, _ in ops]
    ref = [dt / f for dt, f in zip(times, factors)]
    sets = sum(s for _, s, _ in ops)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "sets_per_s": (sets / sum(ref), "sets/s", sets / sum(times)),
        "latency_p90_s": (percentile(ref, 0.9), "s", percentile(times, 0.9)),
        "peak_rss_mb": (rss, "MiB", rss),
    }
    return metrics, {"latency_p50_s": (percentile(ref, 0.5), "s", percentile(times, 0.5))}


def per_layer(tracer, setup_tracer, traced, plain, checks) -> dict:
    """Per-layer metrics of the traced replay `traced` of the ops `plain`."""
    from pgfree import ALL_CHECKS

    out = {}
    per_set = max(sum(s for _, s, _ in traced), 1)
    for mod, qualname in tracing.TRACED:
        name = f"{mod}.{qualname}"
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / per_set, "s/set")
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / per_set, "calls/set")
    for name in ("constructions.bose_burton", "verify.sample_pointset"):
        out[f"setup.{name}.self_s"] = (setup_tracer.self_s.get(name, 0.0), "s")
    c = tracer.counts
    out["matroid.is_pg_free.found_ratio"] = (
        _ratio(c["is_pg_free.found"], tracer.calls.get("matroid.is_pg_free", 0)), "ratio")
    out["spectral.walsh_hadamard.bytes_computed"] = (c["walsh_hadamard.bytes"] / per_set, "B/set")
    out["search.descent.fallback_ratio"] = (
        _ratio(c["descent.fallbacks"], c["descent.runs"]), "ratio")
    for check in ALL_CHECKS:
        evaluated, skipped = checks.get(check, (0, 0))
        out[f"verify.{check}.evaluated_ratio"] = (_ratio(evaluated, evaluated + skipped), "ratio")
    plain_s = sum(dt for dt, _, _ in plain)
    traced_s = sum(dt for dt, _, _ in traced)
    out["tracing.overhead_s"] = ((traced_s - plain_s) / len(plain), "s/op")
    out["tracing.overhead_share"] = (_ratio(traced_s - plain_s, plain_s), "ratio")
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path,
                 setup_probes: int = SETUP_SAMPLES - 1) -> dict:
    """One run: set-up, then the untraced or the traced measurement."""
    fails: dict[str, int] = {}
    if trace:
        setup_tracer = tracing.Tracer()
        w = set_up(workload, seed, workdir, setup_tracer)
        plain = closed_loop(w, seconds / 2, fails)
        tracer = tracing.Tracer()
        restored = tracing.install(tracer)
        try:
            traced = closed_loop(w, 0, fails, count=len(plain))
        finally:
            tracing.uninstall(restored)
        checks: dict[str, tuple[int, int]] = {}
        for _, _, output in traced:
            for name, (ev, sk) in (w.check_counts(output) if output else {}).items():
                e0, s0 = checks.get(name, (0, 0))
                checks[name] = (e0 + ev, s0 + sk)
        metrics = {k: (v, u, v) for k, (v, u) in
                   per_layer(tracer, setup_tracer, traced, plain, checks).items()}
        printed = {}
        attempted = len(plain) + len(traced)
        factor = None
        edges = {f"{a}>{b}": [n, round(t, 6)] for (a, b), (n, t) in sorted(tracer.edges.items())}
        print("trace-edges " + json.dumps(edges), file=sys.stderr)
    else:
        w, *setup = timed_set_up(workload, seed, workdir)
        marks: list[int] = []
        with SpeedSampler() as speed:
            ops = closed_loop(w, seconds, fails, before_op=lambda: marks.append(speed.mark()))
        factors = speed.factors(marks)
        factor = statistics.mean(factors)
        metrics, printed = end_to_end(ops, factors)
        attempted = len(ops)
        setups = [tuple(setup)] + [probe_set_up(workload, seed) for _ in range(setup_probes)]
        metrics["setup_s"] = (statistics.median(s for s, _ in setups), "s",
                              statistics.median(r for _, r in setups))
    return {
        "result": {
            "correct": not (fails.get("error") or fails.get("wrong")),
            "attempted": attempted,
            "failed": sum(fails.values()),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        },
        "measured": {k: raw for k, (_, _, raw) in metrics.items()},
        "printed": printed,
        "fails": fails,
        "slowdown_factor": factor,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pgfree benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    # On SIGTERM, unwind through the finally blocks below, which remove this
    # run's files and stop any set-up probe still running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = WORK / f"{os.getpid()}"
    try:
        if args.setup_probe:
            _, setup_s, raw_s = timed_set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s, "raw_s": raw_s}))
            return 0
        load_before = os.getloadavg()
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    result = run["result"]
    env = machine_info()
    env["load_before"] = load_before
    env["load_after"] = os.getloadavg()
    env["slowdown_factor"] = run["slowdown_factor"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env))
    for name, m in result["metrics"].items():
        measured = run["measured"][name]
        extra = "" if measured == m["value"] else f" (measured {measured:.6g} {m['unit']})"
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    for name, (value, unit, measured) in run["printed"].items():
        print(f"{name} {value:.6g} {unit} (measured {measured:.6g} {unit}; printed only)")
    rate = result["failed"] / result["attempted"]
    print(f"error_rate {rate:.6g} failed/attempted "
          f"({result['failed']}/{result['attempted']}, {run['fails']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
