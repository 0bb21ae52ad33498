"""Self-tests of the benchmark harness.

Run from the repository root (about three minutes):

    python3 bench/selftest.py

1. Failure accounting: inputs that fail in the program today count as one
   failed operation each, and the run goes on.  ``verify zsro`` with degrees
   up to 40 overflows in the solver's residual (a bare OverflowError; the
   CLI exits 1 instead of the documented 2).
2. Determinism: two traced campaigns runs at the published seed print the
   same report digests, matching the recorded ones, and the same counts;
   the recorded zsro digest is that of the report ``sectorlab verify``
   prints for the same campaign.
3. Another seed (7) runs every workload cleanly, so that later claims can be
   re-checked on a seed not used while the benchmark was written.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

FAILING_ARGV = ["verify", "zsro", "--degree-max", "40", "--seed", "42"]


def check_failure_accounting(problems: list) -> None:
    run.configure_process()
    import sectorlab as sl

    wl = run.CampaignsWorkload(sl, 42)
    bad = run.Campaign("zsro-deg40", "zsro", dict(deg_hi=40, theta=0.785398),
                       200)
    good = run.Campaign("zsro", "zsro", dict(deg_hi=16, theta=1.4), 1)
    ledger = run.Ledger()
    times = [ledger.attempt(run.Op("zsro-deg40", wl._call(bad, 42, 200),
                                   lambda report: None)),
             ledger.attempt(run.Op("zsro", wl._call(good, 42, 1),
                                   lambda report: wl._check(good, report)))]
    if times[0] is not None or times[1] is None or ledger.failed != 1 or \
            "OverflowError" not in ledger.failures[0][1]:
        problems.append(f"in-process failure accounting: {ledger.failures}")

    cli = run.CliWorkload(sl, 42)
    ledger = run.Ledger()
    times = [ledger.attempt(cli.subprocess_op("verify-zsro-deg40",
                                              FAILING_ARGV, "")),
             ledger.attempt(cli.subprocess_op(*run.CLI_MIX[0]))]
    if times[0] is not None or times[1] is None or ledger.failed != 1 or \
            "exit code 1" not in ledger.failures[0][1]:
        problems.append(f"CLI failure accounting: {ledger.failures}")


def bench(workload: str, seed: int, seconds: int, trace: int):
    """Run the benchmark; return (result, digest lines)."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=run.ROOT, capture_output=True, text=True,
        timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), [ln for ln in lines
                                   if ln.startswith("digest ")]


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] == "count"}


def check_determinism(problems: list) -> None:
    zsro = next(c for c in run.CAMPAIGNS if c.name == "zsro")
    argv = ["verify", "zsro", "--theta", str(zsro.generator["theta"]),
            "--degree-max", str(zsro.generator["deg_hi"]),
            "--trials", str(zsro.trials),
            "--seed", str(run.PUBLISHED_SEED)]
    cli = subprocess.run([sys.executable, "-m", "sectorlab.cli", *argv],
                         env=run.child_env(), cwd=run.ROOT,
                         capture_output=True, timeout=120)
    if cli.returncode != 0 or \
            run.sha256(cli.stdout) != run.RECORDED_DIGESTS["zsro"]:
        problems.append(f"sectorlab {' '.join(argv)} does not print the "
                        f"recorded zsro report")
    first, first_digests = bench("campaigns", run.PUBLISHED_SEED, 1, 1)
    second, second_digests = bench("campaigns", run.PUBLISHED_SEED, 1, 1)
    if first_digests != second_digests:
        problems.append(f"digests differ: {first_digests} {second_digests}")
    drifted = [d for d in first_digests if not d.endswith(" recorded")]
    if drifted:
        problems.append(f"digests drifted from the recorded ones: {drifted}")
    if counts(first) != counts(second):
        problems.append(f"counts differ: {counts(first)} {counts(second)}")
    for key in ("roots.calls", "roots.degree_sum", "roots.nonconverged",
                "analysis.skipped"):
        if key not in counts(first):
            problems.append(f"count {key} missing")
    for result in (first, second):
        if not result["correct"] or result["failed"]:
            problems.append(f"seed 42 campaigns run failed: {result}")


def check_other_seed(problems: list) -> None:
    for workload, seconds, trace in (("campaigns", 1, 1), ("solve", 2, 0),
                                     ("cli-oneshot", 2, 0)):
        result, _ = bench(workload, 7, seconds, trace)
        if not result["correct"] or result["failed"]:
            problems.append(f"seed 7 {workload} failed: {result}")


def main() -> int:
    problems: list = []
    for check in (check_failure_accounting, check_determinism,
                  check_other_seed):
        before = len(problems)
        check(problems)
        status = "ok" if len(problems) == before else "FAILED"
        print(f"{check.__name__}: {status}", flush=True)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
