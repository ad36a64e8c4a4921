"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import json
import sys
import time

import run

run.use_checkout_source()

import tracing  # noqa: E402
from pgfree import SweepConfig, run_sweep  # noqa: E402
from workloads import (  # noqa: E402
    EXHAUSTIVE_CHECKS,
    AnalyzeDenseFree,
    SpectralLarge,
    SweepExhaustiveR4,
    SweepRandom,
    Workload,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = (
    functools.partial(SweepRandom, rank=6, sample_count=3),
    functools.partial(AnalyzeDenseFree, rank=6),
    functools.partial(SweepExhaustiveR4, rank=3, frozen_evaluated={}),
    functools.partial(SpectralLarge, rank=10),
)


def _measure(tmp_path, workload_cls, trace: bool, seed: int = 1):
    return run.run_workload(workload_cls, seed, 0.05, trace, tmp_path, setup_probes=0)


def test_every_named_metric_is_emitted_with_its_unit(tmp_path):
    wanted = {
        False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        True: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for workload_cls in TINY:
        for trace, names in wanted.items():
            metrics = _measure(tmp_path, workload_cls, trace)["result"]["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            assert got == names, (workload_cls, trace)
            assert all(isinstance(m["value"], float) for m in metrics.values())


def test_tiny_runs_pass_their_output_checks(tmp_path):
    for workload_cls in TINY[:2] + TINY[3:]:
        result = _measure(tmp_path, workload_cls, False)["result"]
        assert result["correct"] and result["failed"] == 0, workload_cls


def test_corrupted_expected_output_counts_as_failed(tmp_path):
    wrong = "0" * 64
    for workload_cls, seed in (
        (functools.partial(SweepExhaustiveR4, rank=3, pinned_digest=wrong, frozen_evaluated={}), 1),
        (functools.partial(SweepExhaustiveR4, rank=3, frozen_evaluated={"thm-3.1": -1}), 1),
        (functools.partial(SweepRandom, rank=6, sample_count=3, pinned_seed0=(wrong,)), 0),
    ):
        run_ = _measure(tmp_path, workload_cls, False, seed=seed)
        result = run_["result"]
        assert not result["correct"]
        assert result["failed"] >= 1
        assert run_["fails"] == {"wrong": result["failed"]}


class _Sleeper(Workload):
    cap_s = 0.05

    def __init__(self, seed):
        pass

    def warmup(self):
        pass

    def op(self, i):
        time.sleep(1)
        return 1, None

    def check(self, i, output):
        return None


def test_an_op_past_its_time_cap_is_a_failed_timeout(tmp_path):
    t0 = time.perf_counter()
    run_ = _measure(tmp_path, _Sleeper, False)
    assert time.perf_counter() - t0 < 0.5
    assert run_["fails"] == {"timeout": 1}
    assert run_["result"]["failed"] == run_["result"]["attempted"] == 1
    assert run_["result"]["correct"]  # a timeout is not a wrong answer


def test_traced_self_times_sum_to_no_more_than_wall_time():
    cfg = SweepConfig(rank=3, level=3, mode="exhaustive", checks=EXHAUSTIVE_CHECKS)
    tracer = tracing.Tracer()
    restored = tracing.install(tracer)
    try:
        t0 = time.perf_counter()
        run_sweep(cfg, workers=1)
        wall = time.perf_counter() - t0
    finally:
        tracing.uninstall(restored)
    assert 0 < sum(tracer.self_s.values()) <= wall
    # is_pg_free is reached through the names verify and search bound
    callers = {a for (a, b) in tracer.edges if b == "matroid.is_pg_free"}
    assert {"verify.run_sweep", "search.reconcile_hyperplane"} <= callers
    assert not hasattr(sys.modules["pgfree.verify"].is_pg_free, "__wrapped__")


def test_speed_sampler_samples_while_the_block_runs_and_restores_the_handler():
    import signal

    from speed import INTERVAL_S, SpeedSampler

    before = signal.getsignal(signal.SIGPROF)
    with SpeedSampler() as speed:
        t_end = time.process_time() + 3 * INTERVAL_S
        while time.process_time() < t_end:
            pass
    assert len(speed.samples) >= 4  # on entry, on exit, and at least two ticks
    assert speed.factor > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_each_op_gets_the_mean_of_the_samples_from_its_mark_to_the_next():
    from speed import REFERENCE_S, SpeedSampler

    speed = SpeedSampler()
    speed.samples = [REFERENCE_S * x for x in (1, 2, 1, 3)]
    got = speed.factors([0, 2])
    assert [round(f, 9) for f in got] == [round(4 / 3, 9), 2.0]
