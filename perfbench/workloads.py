"""The four benchmark workloads, each a closed loop with one client.

Every workload drives pgfree from outside, through public functions, in
one process with ``workers=1``.  A workload makes its inputs from the seed
(``setup``), runs one unmeasured operation of the same kind (``warmup``),
then answers ``op(i)`` for i = 0, 1, 2, ... with ``(sets, output)`` and
judges each output with ``check(i, output)``, which returns ``None`` when
the output is right and a one-line reason when it is wrong.

Why these four:

* ``sweep-random``: random-mode sweeps at r=12, the counting regime.  The
  naive triangle count dominates and freeness gating finds its witness at
  once, so a faster no-witness freeness test must leave this path alone.
* ``analyze-dense-free``: ``pgfree analyze`` on the paper's own family,
  bose_burton(8,3) minus k points.  Two no-witness ``is_pg_free(E,3)``
  searches dominate; counting and the 256-entry transform are negligible.
  At r=9 an op takes 3-5 s, so a run holds too few ops for steady medians.
* ``sweep-exhaustive-r4``: every subset at r=4, millions of tiny calls, so
  per-call overhead in verify, search, pointset and geometry dominates.
  Its canonical JSON is the byte-identity gate for refactors.
* ``spectral-large``: the counting bound at r=22, whose 32 MiB transform
  tables are the only ones larger than a core's L2 cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from pgfree import (
    ALL_CHECKS,
    PointSet,
    SweepConfig,
    bose_burton,
    counting_bound_check,
    run_sweep,
    sample_pointset,
    uniformity,
)
from pgfree import cli

EXHAUSTIVE_CHECKS = tuple(c for c in ALL_CHECKS if c != "gs")  # gs needs rank >= level + 2
RANDOM_CHECKS = ("thm-3.1", "bose-burton", "cor-1.3", "thm-4.1")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check_counts(outcome) -> dict[str, tuple[int, int]]:
    return {
        name: (chk["evaluated"], chk["hypothesis_skipped"])
        for name, chk in outcome.checks.items()
    }


class Workload:
    """Defaults for the workloads below."""

    cap_s: float  # an op that runs longer fails as a timeout

    def setup(self, workdir: Path) -> None:
        pass

    @staticmethod
    def check_counts(output) -> dict[str, tuple[int, int]]:
        """(evaluated, hypothesis_skipped) per theorem check of a sweep."""
        return {}


class SweepRandom(Workload):
    """One op is a 10-sample random sweep at r=12, level 3."""

    name = "sweep-random"
    cap_s = 10.0
    # sha256 of the canonical JSON of ops 0..7 at seed 0.
    PINNED_SEED0 = (
        "2fb95937db8a6397c8dc1bc9ed3c7eacdd8cc9261b6c17cd3b2664018075d956",
        "ce89ea223278d9a9a8618a8d8b8f4d2a8437476376154d3999861dc5afb70163",
        "d0b1888dd156782ab38d65c6869ed397628a47ac90a14527e551a8fdaa8f9965",
        "0de33a9ad50675c8343925abfe33ce4e6bd58ed23bc7ca0a5c9a6d538cb3ae30",
        "e552e5c1b128ce14dd300e6786d5d883817c0661ead35644a997a026f681e489",
        "809f039090b07af23c32904920908877b3c6bd835d93c8f3dc0079f6f45781e5",
        "f45bf8ee244d68b214e20593cd44586afe7f5399d7935c9dfefe8b5728e42868",
        "ad03719f46ca2d120ef85f0d1a1d47e09a90631ff7c726f44262136ca9432237",
    )

    def __init__(self, seed: int, rank: int = 12, sample_count: int = 10,
                 pinned_seed0: tuple[str, ...] | None = None):
        self.seed = seed
        self.rank = rank
        self.sample_count = sample_count
        self.pinned_seed0 = self.PINNED_SEED0 if pinned_seed0 is None else pinned_seed0

    def _config(self, stream: int) -> SweepConfig:
        return SweepConfig(
            rank=self.rank,
            level=3,
            mode="random",
            sample_count=self.sample_count,
            rng_seed=(self.seed << 24) + stream,
            checks=RANDOM_CHECKS,
        )

    def warmup(self) -> None:
        run_sweep(self._config((1 << 24) - 1), workers=1)

    def op(self, i: int):
        return self.sample_count, run_sweep(self._config(i), workers=1)

    def check(self, i: int, outcome):
        if outcome.total_violations:
            return f"{outcome.total_violations} violations"
        if outcome.sets_processed != self.sample_count:
            return f"processed {outcome.sets_processed} sets"
        for name, (evaluated, skipped) in _check_counts(outcome).items():
            if evaluated + skipped != self.sample_count:
                return f"{name}: evaluated + skipped = {evaluated + skipped}"
        if self.seed == 0 and i < len(self.pinned_seed0):
            got = _digest(outcome.to_canonical_json())
            if got != self.pinned_seed0[i]:
                return f"canonical JSON digest {got[:16]} != pinned {self.pinned_seed0[i][:16]}"
        return None

    check_counts = staticmethod(_check_counts)


class AnalyzeDenseFree(Workload):
    """One op is ``pgfree analyze --levels 2,3`` on bose_burton(r,3) minus k
    seeded points, k cycling over 1..kmax, run in-process with stdout captured.

    kmax is an eighth of |bose_burton(r,3)|, so every input stays denser
    than (1 - 3/8) 2^r, where the paper's level-3 hypotheses hold.  Each of
    the first INPUTS ops gets its own draw, so that a run averages over
    many inputs: the search's cost depends on which points are missing.
    """

    name = "analyze-dense-free"
    cap_s = 20.0
    INPUTS = 128

    def __init__(self, seed: int, rank: int = 8):
        self.seed = seed
        self.rank = rank
        self.files: list[Path] = []
        self.warm_file: Path | None = None

    def setup(self, workdir: Path) -> None:
        full = bose_burton(self.rank, 3)
        pts = full.points
        self.full_size = full.size
        self.kmax = full.size // 8
        self.files = []
        for i in range(self.INPUTS):
            k = 1 + i % self.INPUTS % self.kmax
            drop = set(random.Random(f"{self.seed}/{i}").sample(pts, k))
            e = PointSet.from_points(self.rank, [p for p in pts if p not in drop])
            path = workdir / f"input-{i:03d}-minus-{k:02d}.json"
            path.write_text(e.to_json())
            self.files.append(path)
        # Adding a point of the removed flat creates a Fano plane, so the
        # warm-up takes the same CLI path but finds its witnesses at once.
        self.warm_file = workdir / "warmup.json"
        self.warm_file.write_text(full.with_point(1).to_json())

    def _analyze(self, path: Path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["analyze", "--in", str(path), "--levels", "2,3"])
        return rc, buf.getvalue()

    def warmup(self) -> None:
        self._analyze(self.warm_file)

    def op(self, i: int):
        return 1, self._analyze(self.files[i % self.INPUTS])

    def check(self, i: int, output):
        rc, text = output
        if rc != 0:
            return f"exit code {rc}"
        rep = json.loads(text)
        k = 1 + i % self.INPUTS % self.kmax
        flat = rep["flat_search"] or {}
        if rep["size"] != self.full_size - k:
            return f"size {rep['size']} != {self.full_size - k}"
        if rep["pg_freeness"]["3"]["found"]:
            return "a PG(2,2) was reported in a fano-free set"
        if not rep["pg_freeness"]["2"]["found"]:
            return "no triangle was reported"
        if rep["critical_number"] != 2:
            return f"critical number {rep['critical_number']} != 2"
        if not (flat.get("found") and flat.get("density_claim_holds")):
            return "no dense triangle-free flat was found"
        if rep["triangle_count_ordered"] % 6:
            return f"ordered triangle count {rep['triangle_count_ordered']} is not divisible by 6"
        return None


class SweepExhaustiveR4(Workload):
    """One op sweeps all 32,768 subsets of PG(3,2) at level 3; the seed has
    no effect.  The canonical JSON digest and the frozen counts are pinned."""

    name = "sweep-exhaustive-r4"
    cap_s = 80.0
    PINNED_DIGEST = "68681873c77fd83770dd0707361a92866e9d4d68833bd2bdd6f59032e22a0160"
    FROZEN_EVALUATED = {"thm-1.1": 455, "cor-1.3": 455, "lemma-2.4": 202545, "bose-burton": 29887}

    def __init__(self, seed: int, rank: int = 4, pinned_digest: str | None = None,
                 frozen_evaluated: dict[str, int] | None = None):
        self.seed = seed
        self.rank = rank
        self.pinned_digest = self.PINNED_DIGEST if pinned_digest is None else pinned_digest
        self.frozen_evaluated = (
            self.FROZEN_EVALUATED if frozen_evaluated is None else frozen_evaluated
        )

    def _config(self, rank: int) -> SweepConfig:
        return SweepConfig(rank=rank, level=3, mode="exhaustive", checks=EXHAUSTIVE_CHECKS)

    def warmup(self) -> None:
        # The full sweep is the whole measured op; rank 3 runs every check.
        run_sweep(self._config(3), workers=1)

    def op(self, i: int):
        outcome = run_sweep(self._config(self.rank), workers=1)
        return outcome.sets_processed, outcome

    def check(self, i: int, outcome):
        if outcome.total_violations:
            return f"{outcome.total_violations} violations"
        for name, want in self.frozen_evaluated.items():
            got = outcome.checks[name]["evaluated"]
            if got != want:
                return f"{name} evaluated {got} != {want}"
        got = _digest(outcome.to_canonical_json())
        if got != self.pinned_digest:
            return f"canonical JSON digest {got[:16]} != pinned {self.pinned_digest[:16]}"
        return None

    check_counts = staticmethod(_check_counts)


class SpectralLarge(Workload):
    """One op is ``counting_bound_check(E, uniformity(E).epsilon_min)`` on
    ``sample_pointset(22, seed, i)``; the sets are drawn at setup."""

    name = "spectral-large"
    cap_s = 30.0
    SETS = 12

    def __init__(self, seed: int, rank: int = 22):
        self.seed = seed
        self.rank = rank
        self.bits: list[int] = []

    def setup(self, workdir: Path) -> None:
        # Keep only the bitsets: a PointSet caches arrays of every point.
        self.bits = [sample_pointset(self.rank, self.seed, i).bits for i in range(self.SETS + 1)]

    def _bound(self, bits: int):
        e = PointSet(self.rank, bits)
        eps = uniformity(e).epsilon_min
        return eps, counting_bound_check(e, eps)

    def warmup(self) -> None:
        self._bound(self.bits[self.SETS])

    def op(self, i: int):
        return 1, self._bound(self.bits[i % self.SETS])

    def check(self, i: int, output):
        # Parseval and the coefficient invariants are checked when the
        # spectrum is built; a failure raises and fails the op.
        eps, (holds, lhs, rhs) = output
        if not holds or lhs > rhs:
            return f"counting bound does not hold: {lhs} > {rhs}"
        if not 0 < eps <= 1:
            return f"epsilon_min {eps} is out of range"
        return None


WORKLOADS = {
    w.name: w for w in (SweepRandom, AnalyzeDenseFree, SweepExhaustiveR4, SpectralLarge)
}
