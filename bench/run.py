"""sectorlab benchmark: the campaigns, solve and cli-oneshot workloads.

Run from the repository root:

    python3 bench/run.py --workload campaigns --seed 42 --seconds 35 --trace 0

The program is run from ``src/`` of the checkout this script sits in, and is
driven only through its public functions and the ``sectorlab`` CLI, by one
single-threaded process in a closed loop: the next operation starts when the
previous one has returned.  ``--seed`` makes every input; 42 is the published
seed.  Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A workload is a fixed list of distinct operations.  The run repeats the
whole list, in an order the seed shuffles, until ``--seconds`` have passed,
and keeps each operation's fastest time: other tenants share the machine's
cores, and contention only ever adds time.  Between operations it also
times a fixed reference, which is no part of the program, to see how fast
the machine itself ran.  With ``--trace 0`` the metrics are the
end-to-end ones, the same names on every workload (an *item* is a campaign
trial, a solve or a CLI call):

    setup_s       median import of sectorlab.cli in a fresh interpreter, plus
                  the median of five input generations and warm-ups (s)
    ok_frac       operations that passed their checks / operations attempted
    items_per_s   items / summed fastest operation times (1/s), scaled to
                  the machine speed at which the reference takes the
                  workload's ``ref_nominal_ms``

Lines before the JSON give it unscaled under each workload's own name, with
the median and tail latencies and the per-campaign rates, which carry no
bound.

With ``--trace 1`` the same list runs alternately with and without wrappers
around every public layer function (see ``tracing.py``); the metrics are per
layer and per traced pass, and the spans are written to ``bench/out/``.
README.md beside this file explains the workloads and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

PUBLISHED_SEED = 42
SETUP_REPS = 5
MIN_PASSES = 3
SHOWN_FAILURES = 10
PROBE_REPS = 7
# the share of a run spent timing the reference
REF_SHARE = 0.2
# one reference kernel's best-of-passes time on 2 shared x86-64 cores, where
# the bounds were set; timed metrics are scaled to that machine speed
REF_KERNEL_MS = 1.7

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def configure_process() -> None:
    """One thread for this process and its children; run the checkout's
    source, never an installed copy.  Must run before numpy is imported."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SECTORLAB_SEED", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SECTORLAB_SEED", None)
    env.update({var: "1" for var in _THREAD_VARS})
    env["PYTHONIOENCODING"] = "utf-8"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass(frozen=True)
class Op:
    """One distinct operation on ``items`` items: ``call()`` into the
    program, then ``check(result)``, which returns a problem string or
    None."""

    label: str
    call: Callable
    check: Callable
    group: str = ""
    items: int = 1


class Ledger:
    """Counts operations and failures.  Any exception a call into the
    program raises, or a failed output check, fails that operation only;
    the run goes on with the next one."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.tracer = None

    def attempt(self, op: Op):
        """Run and check ``op``; its wall time in seconds, or None if it
        failed."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = time.perf_counter()
        try:
            result = op.call()
        except (Exception, SystemExit):  # the program's bugs are data here
            self.fail(op.label, traceback.format_exc(limit=-2).strip())
            return None
        elapsed = time.perf_counter() - start
        try:
            problem = op.check(result)
        except Exception:  # a malformed result fails its check
            problem = traceback.format_exc(limit=-2).strip()
        if problem:
            self.fail(op.label, problem)
            return None
        return elapsed

    def fail(self, label: str, problem: str) -> None:
        self.failed += 1
        self.failures.append((label, problem))
        if len(self.failures) <= SHOWN_FAILURES:
            print(f"FAILED {label}: {problem}", file=sys.stderr)


def reference_kernel(repeats: int = 1) -> None:
    """Fixed work shaped like the program's hot paths: Aberth-style sweeps
    over small complex numpy arrays driven from Python, then plain Python
    arithmetic.  It is no part of the program, so its time tracks only the
    machine."""
    import numpy as np

    for _ in range(repeats):
        _reference_sweeps(np)


def _reference_sweeps(np) -> None:
    coeffs = np.poly(np.exp(1j * np.linspace(0.1, 3.0, 10)))
    z = 1.3 * np.exp(1j * (0.6 * np.arange(10) + 0.4))
    for _ in range(40):
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        pv = np.zeros_like(z)
        dv = np.zeros_like(z)
        for ck in coeffs:
            dv = dv * z + pv
            pv = pv * z + ck
        newton = pv / dv
        z = z - 1e-3 * newton / (1.0 - newton * (1.0 / diff).sum(axis=1))
    total = 0
    for k in range(5000):
        total += k * k


class Reference:
    """Times a fixed reference between operations, so that it samples the
    machine across the whole run while taking about REF_SHARE of it."""

    def __init__(self, kernel: Callable):
        self.kernel = kernel
        self.times: list = []
        self._due = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        if start < self._due:
            return
        self.kernel()
        done = time.perf_counter()
        self.times.append(done - start)
        self._due = done + (done - start) * (1.0 / REF_SHARE - 1.0)

    def best_of(self, n: int) -> float:
        """The reference's fastest time among ``n`` samples spread over the
        run, the way each operation's fastest time is taken among its ``n``
        passes: the median over interleaved groups of ``n`` samples."""
        groups = max(1, len(self.times) // n)
        return statistics.median(min(self.times[g::groups])
                                 for g in range(groups))


def run_pass(ops, ledger: Ledger, rng: random.Random, times: list,
             reference: Reference | None = None) -> None:
    """Run every operation once, in shuffled order; append each successful
    wall time to that operation's list in ``times``."""
    order = list(range(len(ops)))
    rng.shuffle(order)
    for i in order:
        elapsed = ledger.attempt(ops[i])
        if elapsed is not None:
            times[i].append(elapsed)
        if reference is not None:
            reference.sample()


class Workload:
    """A fixed list of distinct operations, made in set-up from the seed."""

    min_passes = MIN_PASSES
    # generic metric name -> this workload's own name for it
    names: dict = {}
    # kernels per reference sample.  A sample should last about as long as
    # an operation: one much shorter slips between the moments other tenants
    # take the core, and one much longer averages over them, so either
    # misses slowdowns that the operations see.
    ref_repeats = 1

    @property
    def ref_nominal_ms(self) -> float:
        """The reference's best time at the machine speed of the bounds."""
        return self.ref_repeats * REF_KERNEL_MS

    def reference(self) -> None:
        reference_kernel(self.ref_repeats)

    def __init__(self, sl, seed: int):
        self.sl = sl
        self.seed = seed

    def setup(self) -> list:
        raise NotImplementedError

    def trace_ops(self, ops) -> list:
        """The operations of a traced pass: by default the timed ones."""
        return ops

    def summary(self, ops, best, times) -> list:
        """Extra (name, value, unit) lines that carry no bound, from each
        operation's fastest time and from all its successful times."""
        return []

    def finish(self) -> None:
        """Print what the run found beyond pass or fail."""


# --------------------------------------------------------------- campaigns

@dataclass(frozen=True)
class Campaign:
    """A campaign at its published settings.  ``theorem`` None means
    ``search_counterexample`` with the sequence spec in ``op``."""

    name: str
    theorem: str | None
    generator: dict
    trials: int
    params: dict | None = None
    op: str | None = None


# Generator settings from tests/test_acceptance.py and the `verify` defaults;
# trial counts from the acceptance tests, the CLI default (roms) and the
# README (search).
CAMPAIGNS = (
    Campaign("jsd", "jsd", dict(deg_hi=16, theta=1.4), 1000),
    Campaign("jsd-quadratic", "jsd", {}, 200, params={"quadratic": True}),
    Campaign("zsro", "zsro", dict(deg_hi=16, theta=1.4), 1000),
    Campaign("cosak", "cosak", dict(deg_hi=16, theta=1.4), 500),
    Campaign("lms2", "lms2", dict(deg_hi=12, theta=0.0, real_fraction=1.0),
             500),
    Campaign("period-strip", "period-strip", dict(deg_hi=16, theta=1.4), 200),
    Campaign("roms", "roms", dict(deg_hi=16, theta=0.785398), 200),
    Campaign("search", None, dict(deg_hi=12, theta=0.6), 200,
             op="exppower:alpha=0.3,p=1.5"),
)

# Each campaign is one call with its published trial count at generator
# seed --seed, so at seed 42 its report is the one the acceptance tests and
# `sectorlab verify` make.  Fewer trials per call would make more passes in
# a run, but the work of a pass would then depend more on the seed: over
# seeds 1-12, the polynomial evaluations of a pass spread by 0.17
# (interquartile range over median) with half the published trials, and by
# 0.11 with all of them.

# sha256 of each campaign's report.to_json() at seed 42.  A mismatch is
# flagged, not failed: changed report bytes need a note in CHANGES.md, not a
# refusal.
RECORDED_DIGESTS = {
    "jsd":
        "fda53d992c14981b697edd71ec91b73eb128d215a86486dad7b86d0478b9c686",
    "jsd-quadratic":
        "980e77ba1f3a8d77ee11774afecca5848eeb42ff10cf8ead17a629618bec6106",
    "zsro":
        "1e7a3ecf3c1f94dc607001eb6871675fc4c19325d528da4d440bb40bc05d380f",
    "cosak":
        "c06adf97dea8b8f8068006e5ef2df4e37f018a54a468d3259446e2b14e4b266c",
    "lms2":
        "767343cacac0d167db2de3ebc8814b4b48647ced16ffd4fd9b03f5b4e329cb8e",
    "period-strip":
        "527f133998df88d6df17d5dbc9279202fe6266fd86e1c351bfc933b90748a7c1",
    "roms":
        "a9bd6be35def8dc24bc16bf0285ccf35e1c5970ccec9e4660bcd6e78a904fd34",
    "search":
        "5e0a15d15894282ce70dadbc64051c284726e20aa0bc4778649f8409d2e33eec",
}

# the quadratic jsd run counts toward the aggregate only: too short to time
TIMED_ALONE = ("jsd", "zsro", "cosak", "lms2", "period-strip", "roms",
               "search")


class CampaignsWorkload(Workload):
    """Every campaign as one multi-trial call, the whole list once per
    pass; an item is a trial."""

    names = {"items_per_s": "campaigns.trials_per_s",
             "item_ms_p50": "campaigns.trial_ms_p50"}
    # calls take 0.1-3 s; against a 100-trial cosak call, 50 kernels in a
    # row tracked the machine better than one kernel did
    ref_repeats = 50

    def __init__(self, sl, seed: int):
        super().__init__(sl, seed)
        self.reports: dict = {}

    def _call(self, c: Campaign, seed: int, trials: int):
        sl = self.sl
        gen = sl.PolyGenSpec(seed=seed, **c.generator)
        if c.theorem is None:
            sequence = sl.parse_sequence_spec(c.op)
            return lambda: sl.search_counterexample(sequence, gen,
                                                    trials=trials)
        return lambda: sl.verify_theorem(
            c.theorem, gen, dict(c.params) if c.params else None,
            trials=trials)

    def _check(self, c: Campaign, report) -> str | None:
        trials = c.trials
        if report.trials != trials or not 0 <= report.skipped <= trials:
            return f"{report.trials} trials, {report.skipped} skipped; " \
                   f"asked for {trials}"
        worst, cex = report.worst_margin, report.counterexample
        # worst_margin is None only when every trial was skipped
        if worst is None:
            if report.skipped != trials:
                return "no worst margin although trials were tested"
        elif not math.isfinite(worst):
            return f"worst margin {worst!r}"
        if c.theorem is None:
            # a hunt: sector growth under this family, which fails the r_n
            # necessary condition, is a legitimate finding.  A margin is an
            # angle before (in [0, pi/2)) minus an angle after (in [0, pi]),
            # and a certificate is the worst trial.
            if worst is None or not -math.pi <= worst < math.pi / 2:
                return f"worst margin {worst!r} outside [-pi, pi/2)"
            if cex is not None and (cex.margin != worst or
                                    not 0 <= cex.trial_index < trials):
                return f"certificate at trial {cex.trial_index} with " \
                       f"margin {cex.margin!r}, worst margin {worst!r}"
            if report.params.get("rn_necessary_condition") != \
                    "fails-necessary-condition":
                return "search lost its r_n diagnosis"
        else:
            if cex is not None:
                return f"counterexample at trial {cex.trial_index}: " \
                       f"{cex.detail}"
            if c.name == "zsro" and report.skipped:
                return f"zsro skipped {report.skipped} trials"
        text = report.to_json()
        if self.reports.setdefault(c.name, text) != text:
            return "report bytes differ from this run's first report"
        return None

    def setup(self) -> list:
        ops = []
        for c in CAMPAIGNS:
            ops.append(Op(f"{c.name} seed {self.seed}",
                          self._call(c, self.seed, c.trials),
                          lambda rep, c=c: self._check(c, rep),
                          group=c.name, items=c.trials))
            self._call(c, self.seed, 2)()
        return ops

    def summary(self, ops, best, times) -> list:
        return [(f"{c.name}.trials_per_s", c.trials / t, "1/s")
                for c, t in zip(CAMPAIGNS, best)
                if c.name in TIMED_ALONE and t < math.inf]

    def finish(self) -> None:
        for c in CAMPAIGNS:
            digest = sha256(self.reports.get(c.name, ""))
            note = ""
            if self.seed == PUBLISHED_SEED:
                recorded = RECORDED_DIGESTS[c.name]
                note = " recorded" if digest == recorded else \
                    f" DRIFT from recorded {recorded}"
            print(f"digest {c.name} {digest}{note}")


# ------------------------------------------------------------------- solve

SOLVE_POOL = 400
SOLVE_WARMUP = 16


class SolveWorkload(Workload):
    """find_roots on polynomials drawn in set-up from the published generator
    (degree 1-16, theta 1.4), before any operator is applied."""

    names = {"items_per_s": "solve.solves_per_s", "item_ms_p50": "solve.ms_p50",
             "item_ms_p90": "solve.ms_p90", "item_ms_p99": "solve.ms_p99"}

    @staticmethod
    def _check(p, zs) -> str | None:
        total = sum(e.multiplicity for e in zs.zeros)
        if total != p.degree or zs.source_degree != p.degree:
            return f"multiplicities sum to {total}, degree {p.degree}"
        return None

    def setup(self) -> list:
        import numpy as np

        sl = self.sl
        gen = sl.PolyGenSpec(seed=self.seed, deg_hi=16, theta=1.4)
        ops = []
        for i in range(SOLVE_POOL):
            p = sl.from_sector_roots(sl.draw_sector_spec(
                gen, np.random.default_rng([self.seed, i])))
            ops.append(Op(f"solve #{i} seed {self.seed}",
                          lambda p=p: sl.find_roots(p),
                          lambda zs, p=p: self._check(p, zs)))
        for op in ops[:SOLVE_WARMUP]:
            op.call()
        return ops


# ------------------------------------------------------------- cli-oneshot

# (label, argv, sha256 of the expected stdout).  For example `roots --coeffs
# 2,-2,1` prints "1+1i (×1), 1-1i (×1)\n".
CLI_MIX = (
    ("roots", ["roots", "--coeffs", "2,-2,1"],
     "11fdd521bf0ad4b7a5c4debc45e6a2033f93f0288d6ff388d30220b85648f0b1"),
    ("roots-json", ["roots", "--coeffs", "2,-2,1", "--format", "json"],
     "4fb45de2e9d240611628b27f29eace07dec7b08491d5e14691f713ad777a7f43"),
    ("sector", ["sector", "--coeffs", "2,-2,1"],
     "b7fe3544f7d2e14c3fbf0a4e6f54fefdb195463d815a49e07cdb5bd9146d7a95"),
    ("apply", ["apply", "--op", "gauss:alpha=0.832555", "--coeffs", "2,-2,1"],
     "d9b56873188ee6da1b309f570f1f7c89a1daaecfd7dd5f14553c19451fa91a86"),
    ("plot", ["plot", "--coeffs", "2,-2,1", "--alpha", "0.392699",
              "--show-discs"],
     "30faf5f2806b1325c784d06d80954753adc60f7f261917c692a7d142b9d31ad5"),
    ("verify-double-sector", ["verify", "double-sector"],
     "fc904575185391e3d6a9a2329ff2f2bb0b8c50058ceb37f78e1b2f7e5a85a8fb"),
)
CLI_MIN_CALLS = 100
CLI_REPLAY_CYCLES = 40


def check_cli(expected: str, code, stdout) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if sha256(stdout) != expected:
        return f"stdout differs from the known bytes: {stdout[:200]!r}"
    return None


class CliWorkload(Workload):
    """One `python -m sectorlab.cli` process per operation."""

    min_passes = -(-CLI_MIN_CALLS // len(CLI_MIX))
    names = {"items_per_s": "cli.calls_per_s",
             "item_ms_p50": "cli.fastest_ms_p50"}

    def __init__(self, sl, seed: int):
        super().__init__(sl, seed)
        self.env = child_env()

    def subprocess_op(self, label: str, argv, expected: str) -> Op:
        cmd = [sys.executable, "-m", "sectorlab.cli", *argv]
        return Op(f"cli {label}",
                  lambda: subprocess.run(cmd, env=self.env, cwd=ROOT,
                                         capture_output=True, timeout=60),
                  lambda r: check_cli(expected, r.returncode, r.stdout),
                  group=label)

    def setup(self) -> list:
        ops = [self.subprocess_op(*entry) for entry in CLI_MIX]
        # one call writes the bytecode caches and warms the file cache
        ops[0].call()
        return ops

    # the reference is a fresh interpreter importing numpy, which is no part
    # of the program and tracks process start-up better than a kernel does
    ref_nominal_ms = 130.0

    def reference(self) -> None:
        subprocess.run([sys.executable, "-c", "import numpy"], env=self.env,
                       cwd=ROOT, check=True, capture_output=True, timeout=60)

    def summary(self, ops, best, times) -> list:
        """The latency of every successful call, not only of each command's
        fastest one."""
        ms = [t * 1e3 for op_times in times for t in op_times]
        return [("cli.call_ms_p50", percentile(ms, 50), "ms"),
                ("cli.call_ms_p90", percentile(ms, 90), "ms")]

    def trace_ops(self, ops) -> list:
        """The mix in-process through ``cli.main``: the layers of a child
        process cannot be traced from here."""
        cli = self.sl.cli

        def replay(argv, out):
            out.seek(0)
            out.truncate()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                return cli.main(list(argv))

        replay_ops = []
        for label, argv, expected in CLI_MIX:
            out = io.StringIO()
            replay_ops.append(Op(
                f"cli.main {label}",
                lambda argv=argv, out=out: replay(argv, out),
                lambda code, e=expected, o=out: check_cli(e, code,
                                                          o.getvalue()),
                group=label))
        return replay_ops * CLI_REPLAY_CYCLES


WORKLOADS = {
    "campaigns": CampaignsWorkload,
    "solve": SolveWorkload,
    "cli-oneshot": CliWorkload,
}


# -------------------------------------------------------------------- runs

def environment(np) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "machine": platform.machine(),
    }


def interpreter_probe_ms(code: str, reps: int = PROBE_REPS) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    env = child_env()
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, capture_output=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def end_to_end(wl, ops, ledger: Ledger, rng, seconds: float) -> dict:
    times = [[] for _ in ops]
    reference = Reference(wl.reference)
    passes = 0
    end = time.perf_counter() + seconds
    while passes < wl.min_passes or time.perf_counter() < end:
        run_pass(ops, ledger, rng, times, reference)
        passes += 1
    best = [min(t, default=math.inf) for t in times]
    done = [(op.items, t) for op, t in zip(ops, best) if t < math.inf]
    items = sum(n for n, _ in done)
    ms = [t * 1e3 / n for n, t in done]
    measured = {
        "items_per_s": (items / sum(t for _, t in done) if done else 0.0,
                        "1/s"),
        "item_ms_p50": (percentile(ms, 50), "ms"),
        "item_ms_p90": (percentile(ms, 90), "ms"),
        "item_ms_p99": (percentile(ms, 99), "ms"),
    }
    # a machine running at `slowdown` times the nominal reference time
    # stretches every operation by about as much
    reference_ms = reference.best_of(passes) * 1e3
    slowdown = reference_ms / wl.ref_nominal_ms
    print(f"passes {passes} operations {len(ops)} succeeded-at-least-once "
          f"{len(done)}")
    print(f"reference best_ms {reference_ms} samples "
          f"{len(reference.times)} slowdown {slowdown}")
    lines = [(wl.names[k], v, u) for k, (v, u) in measured.items()
             if k in wl.names]
    lines.append(("failed_frac", ledger.failed / ledger.attempted, "ratio"))
    for name, value, unit in lines + wl.summary(ops, best, times):
        print(f"metric {name} {value} {unit}")
    # the latency percentiles are printed but carry no bound: even scaled,
    # the median over operations spread across seeds by up to 0.25 on
    # `solve` and `campaigns`
    return {
        "ok_frac": ((ledger.attempted - ledger.failed) / ledger.attempted,
                    "ratio"),
        "items_per_s": (measured["items_per_s"][0] * slowdown, "1/s"),
    }


def per_layer(wl, ops, ledger: Ledger, rng, seconds: float,
              header: dict) -> dict:
    """Alternate untraced and traced passes over the same operations until
    time is up, and report per traced pass.  Every traced pass must count
    the same."""
    from tracing import LAYERS, Tracer

    ops = wl.trace_ops(ops)
    times = [[] for _ in ops]
    tracer = Tracer()
    ledger.tracer = tracer
    wall = {False: 0.0, True: 0.0}
    passes = 0
    per_pass = []
    end = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < end:
        for traced in ((False, True) if passes % 2 == 0 else (True, False)):
            spans, counters = len(tracer.spans), dict(tracer.counters)
            if traced:
                tracer.install()
            try:
                start = time.perf_counter()
                run_pass(ops, ledger, rng, times)
                wall[traced] += time.perf_counter() - start
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                counts = {k: v - counters.get(k, 0)
                          for k, v in tracer.counters.items()}
                counts["spans"] = len(tracer.spans) - spans
                per_pass.append(counts)
        passes += 1
    if any(counts != per_pass[0] for counts in per_pass):
        ledger.fail("trace", f"traced passes counted differently: {per_pass}")

    # self times go into the result as shares of the traced wall time, and
    # in seconds on the `layer` lines; a layer not reached has share 0
    calls = tracer.calls()
    self_s = {layer: t / passes for layer, t in tracer.self_times().items()}
    self_s["bench"] = (wall[True] - tracer.top_level_time()) / passes
    wall_s = wall[True] / passes
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer] // passes, "count")
    for layer, seconds in self_s.items():
        print(f"layer {layer}.self_s {seconds} s")
        metrics[f"{layer}.self_frac"] = (seconds / wall_s, "ratio")
    roots_ms = tracer.durations_ms("roots")
    metrics["roots.call_ms_p50"] = (percentile(roots_ms, 50), "ms")
    metrics["roots.call_ms_p99"] = (percentile(roots_ms, 99), "ms")
    for key in ("roots.nonconverged", "roots.degree_sum", "analysis.trials",
                "analysis.skipped"):
        metrics[key] = (tracer.counters[key] // passes, "count")
    trials = tracer.counters["analysis.trials"]
    tested = trials - tracer.counters["analysis.skipped"]
    metrics["analysis.tested_frac"] = (tested / trials if trials else 0.0,
                                       "ratio")
    metrics["cli.interpreter_ms"] = (interpreter_probe_ms("pass"), "ms")
    metrics["cli.import_ms"] = (interpreter_probe_ms("import sectorlab.cli"),
                                "ms")
    metrics["trace.wall_s"] = (wall_s, "s")
    metrics["trace.passes"] = (passes, "count")
    metrics["trace.overhead_frac"] = (wall[True] / wall[False] - 1.0, "ratio")

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{header['workload']}-seed{header['seed']}.jsonl"
    tracer.write(path, dict(header, passes=passes))
    print(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=PUBLISHED_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sectorlab" / "__init__.py").is_file():
        print(f"error: no sectorlab sources under {SRC}", file=sys.stderr)
        return 2
    configure_process()

    import numpy as np
    sl = importlib.import_module("sectorlab")
    importlib.import_module("sectorlab.cli")
    if Path(sl.__file__).resolve().parent != SRC / "sectorlab":
        print(f"error: imported sectorlab from {sl.__file__}", file=sys.stderr)
        return 2

    header = dict(environment(np), workload=args.workload, seed=args.seed,
                  trace=args.trace, seconds=args.seconds)
    print("env " + " ".join(f"{k}={v}" for k, v in header.items()))

    wl = WORKLOADS[args.workload](sl, args.seed)
    setups = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        ops = wl.setup()
        setups.append(time.perf_counter() - t)

    ledger = Ledger()
    rng = random.Random(args.seed)
    if args.trace:
        metrics = per_layer(wl, ops, ledger, rng, args.seconds, header)
    else:
        # the import is timed in fresh interpreters, so that it too is a
        # median of several
        import_s = interpreter_probe_ms("import sectorlab.cli", SETUP_REPS)
        setup_s = import_s / 1e3 + statistics.median(setups)
        metrics = {"setup_s": (setup_s, "s"),
                   **end_to_end(wl, ops, ledger, rng, args.seconds)}
    wl.finish()
    if ledger.failed > SHOWN_FAILURES:
        print(f"... {ledger.failed - SHOWN_FAILURES} more failures",
              file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
