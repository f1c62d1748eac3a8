"""wealthsim benchmark: one workload through the real front end, timed and checked.

    python3 perfbench/run.py --workload simulate_reset_dense --seed 1 \\
        --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nothing needs building. The workload's config is
generated from ``--seed``, and its subcommand runs in this process through
``wealthsim.cli.main``: once untimed to warm up, then again and again until
about ``--seconds`` have passed since the warm-up began. Every output of
every invocation is checked (workloads.py).

``--trace 0`` reports the end-to-end metrics, medians over invocations.
``--trace 1`` alternates traced and untraced invocations and reports the
per-layer metrics of the traced ones (tracing.py), plus the tracing
overhead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print the same metrics by name with their units. Raw numbers, the machine,
and the spans of traced runs go to ``.perfbench_out/`` in the checkout.

Exits with status 2, printing no result, when the checkout has no wealthsim
sources.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# Fresh interpreters timed after each untraced invocation, so that the
# set-up samples spread over the whole run like the invocations do.
SETUP_SPAWNS = 1
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import wealthsim.cli; "
              "from wealthsim import backends; backends.backend_name")
# bench_backends.py's kernel case: N=3600 agents over 2000 days, seed 1
KERNEL_AGENTS, KERNEL_DAYS = 3600, 2000
KERNEL_AGREEMENT_RTOL = 5e-13

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    if name.endswith("magent_days_per_s"):
        return "Magent-days/s"
    if name == "kernel.agent_days":
        return "agent-days"
    if name.endswith(("bytes_computed", "bytes_written")):
        return "B"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if "_us_per_" in name:
        return "us"
    if name.endswith(".residual"):
        return "L1"
    if name.endswith("coverage"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    return "count"


def median(values):
    """Median, kept an integer for counts (which repeat exactly)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def machine_info(wealthsim) -> Dict[str, object]:
    info: Dict[str, object] = {"nproc": len(os.sched_getaffinity(0)), "cpu": "unknown"}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    with contextlib.suppress(OSError):
        for index in sorted(os.listdir(cache_dir)):
            with contextlib.suppress(OSError):
                with open(os.path.join(cache_dir, index, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(cache_dir, index, "size")) as fh:
                    size = fh.read().strip()
                if level in ("2", "3"):
                    info[f"l{level}"] = size
    info["python"] = platform.python_version()
    for pkg in ("numpy", "scipy"):
        try:
            info[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            info[pkg] = "absent"
    info["wealthsim"] = wealthsim.__version__
    info["backend"] = wealthsim.backend_name
    for var in ("WEALTHSIM_BACKEND", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var, "")
    return info


def setup_seconds() -> List[float]:
    """Fresh interpreter to wealthsim.cli imported and the backend chosen."""
    cmd = [sys.executable, "-c", SETUP_CODE, SRC]
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, which would quantize every sample.
        subprocess.run(cmd, check=True)
        times.append(time.perf_counter() - t0)
    return times


def kernel_modes(backends, stream_key):
    """One direct advance call per mode and backend, as bench_backends.py makes.

    Returns the selected backend's M agent-days/s per mode and the
    cross-backend agreement of the final totals (rtol 5e-13).
    """
    rates, totals = {}, {}
    impls = sorted(backends.available().items())
    for mode in ("free", "reset", "skewed"):
        skewed, coupled = mode == "skewed", mode != "free"
        for name, advance in impls:
            excess = np.full(KERNEL_AGENTS, 600.0)
            t0 = time.perf_counter()
            advance(excess, stream_key(1), 0, 0, KERNEL_DAYS, 0.06,
                    -0.015 if skewed else 0.0, 1000.0, skewed, coupled,
                    600.0 * KERNEL_AGENTS)
            dt = time.perf_counter() - t0
            if name == backends.backend_name:
                rates[mode] = KERNEL_AGENTS * KERNEL_DAYS / dt / 1e6
            totals.setdefault(mode, {})[name] = float(excess.sum())
    if len(impls) < 2:
        return rates, True, f"single backend ({impls[0][0]})"
    bad = [mode for mode, per in totals.items()
           if not np.allclose(list(per.values()), next(iter(per.values())),
                              rtol=KERNEL_AGREEMENT_RTOL, atol=0.0)]
    if bad:
        return rates, False, f"backends disagree beyond rtol=5e-13 in {bad}: {totals}"
    return rates, True, f"{len(impls)} backends agree at rtol=5e-13"


@dataclass
class Invocation:
    """One call of cli.main: its times, exit code, and per-operation problems."""

    traced: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    sys_s: float = 0.0
    code: Optional[int] = None
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)


def invoke(cli, argv: List[str], tracer=None) -> Invocation:
    inv = Invocation(traced=tracer is not None)
    stdout = io.StringIO()
    with (tracing.traced(tracer) if tracer is not None else contextlib.nullcontext()):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                if tracer is None:
                    inv.code = cli.main(argv)
                else:
                    with tracer.span("cli.main"):
                        inv.code = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a dead benchmark
            traceback.print_exc()
        inv.wall_s = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
    inv.sys_s = ru1.ru_stime - ru0.ru_stime
    inv.cpu_s = (ru1.ru_utime - ru0.ru_utime) + inv.sys_s
    return inv


def check(wl, seed: int, out_dir: str, inv: Invocation, reference) -> Dict[float, float]:
    """Fill ``inv.problems`` (one entry per operation); return residuals."""
    residuals: Dict[float, float] = {}
    if inv.code != 0:
        inv.problems = [f"invocation exited with {inv.code}"] * wl.n_ops()
        return residuals
    try:
        if wl.simulate:
            inv.problems = workloads.check_simulate(wl, seed, out_dir, reference)
        else:
            inv.problems, residuals = workloads.check_stationary(wl, seed, out_dir, reference)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        inv.problems = [f"outputs unreadable: {exc!r}"] * wl.n_ops()
    return residuals


def byte_identity(wl, reference_dir: str, pool_dir: str, workers: int) -> List[str]:
    """Per run, whether the threaded export matches the workers=1 one byte for byte."""
    names = sorted(set(os.listdir(reference_dir)) | set(os.listdir(pool_dir)))
    problems = []
    for r in range(wl.n_ops()):
        mine = [n for n in names if n == "manifest.json" or f"_run{r:02d}." in n]
        differ = [n for n in mine
                  if not (os.path.exists(os.path.join(reference_dir, n))
                          and os.path.exists(os.path.join(pool_dir, n))
                          and filecmp.cmp(os.path.join(reference_dir, n),
                                          os.path.join(pool_dir, n), shallow=False))]
        problems.append(f"workers={workers} export differs: {differ}" if differ else "")
    return problems


def run_invocations(wl, seed: int, start: float, seconds: float, traced: bool, cli,
                    out: str, config: str, reference, setup: List[float]):
    """Invoke the workload until about ``seconds`` have passed since ``start``.

    Traced runs alternate traced and untraced invocations, starting traced,
    and make at least one of each; untimed runs time ``SETUP_SPAWNS`` fresh
    interpreters into ``setup`` after each invocation. The first export is
    kept for the byte-identity check; later ones are deleted once checked.
    """
    eps_tags = {e: workloads.eps_tag(e) for e in workloads.SWEEP}
    invocations: List[Invocation] = []
    residuals: List[Dict[float, float]] = []
    spans: List[List[dict]] = []
    while True:
        began = time.perf_counter()
        rep_dir = os.path.join(out, f"rep{len(invocations)}")
        tracer = tracing.Tracer() if traced and len(invocations) % 2 == 0 else None
        inv = invoke(cli, [wl.command, "--config", config, "--out", rep_dir], tracer)
        res = check(wl, seed, rep_dir, inv, reference)
        if tracer is not None:
            inv.layers = tracing.layer_metrics(tracer.spans, eps_tags, inv.wall_s)
            residuals.append(res)
            spans.append(tracer.records())
        if invocations:
            shutil.rmtree(rep_dir, ignore_errors=True)
        invocations.append(inv)
        if not traced:
            setup.extend(setup_seconds())
        now = time.perf_counter()
        # Stop when one more invocation would overrun --seconds by more than
        # stopping now falls short of it.
        if (not traced or len(invocations) >= 2) and now - start + (now - began) / 2 >= seconds:
            return invocations, residuals, spans


def warm_up(wl, seed: int, workers: int, cli, out: str, reference) -> Invocation:
    """Run the workload once, untimed and checked, before the timed ones.

    The first invocation in a process runs ~9% slower than the rest on the
    simulate_skewed_long and stationary_sweep workloads. A threaded
    workload warms up on the engine's thread pool, which gives the pool's
    per-layer figures: two threads on a two-core share of a busy host time
    the scheduler more than the program, so no timed invocation uses it.
    """
    config = os.path.join(out, "warm.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(wl.config_text(seed, workers))
    warm_dir = os.path.join(out, "warm")
    warm = invoke(cli, [wl.command, "--config", config, "--out", warm_dir])
    check(wl, seed, warm_dir, warm, reference)
    return warm


def pool_identity(wl, workers: int, pool: Invocation, out: str) -> None:
    """Fail the pool warm-up's ensemble runs unless its export is
    byte-identical to the first workers=1 invocation's (criterion 11)."""
    if pool.code == 0:
        pool.problems = [a or b for a, b in zip(pool.problems, byte_identity(
            wl, os.path.join(out, "rep0"), os.path.join(out, "warm"), workers))]


def traced_metrics(invocations: List[Invocation], residuals, mode_rates,
                   pool: Optional[Invocation]) -> Dict[str, float]:
    layered = [inv.layers for inv in invocations if inv.traced]
    metrics = {k: median([d[k] for d in layered]) for k in layered[0]}
    for eps in workloads.SWEEP:
        vals = [r[eps] for r in residuals if eps in r]
        metrics[f"stationary.{workloads.eps_tag(eps)}.residual"] = (
            statistics.median(vals) if vals else 0.0)
    for mode, rate in mode_rates.items():
        metrics[f"kernel.mode_{mode}.magent_days_per_s"] = rate
    metrics["engine.pool_wall_s"] = pool.wall_s if pool is not None else 0.0
    metrics["engine.pool_sys_s"] = pool.sys_s if pool is not None else 0.0
    traced_wall = statistics.median(i.wall_s for i in invocations if i.traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(
        i.wall_s for i in invocations if not i.traced)
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wealthsim", "cli.py")):
        print(f"perfbench: no wealthsim sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import wealthsim
    from wealthsim import backends, cli
    from wealthsim.rng import stream_key

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported wealthsim from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    seed, traced = args.seed, bool(args.trace)
    machine = machine_info(wealthsim)
    pool_workers = min(2, machine["nproc"]) if wl.threaded else 1
    reference = workloads.load_reference()

    out = os.path.join(OUT, f"{wl.name}-seed{seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    config = os.path.join(out, "workload.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(wl.config_text(seed, 1))

    setup: List[float] = []
    mode_rates, agreement_ok, agreement = kernel_modes(backends, stream_key)
    start = time.perf_counter()
    warm = warm_up(wl, seed, pool_workers, cli, out, reference)
    invocations, residuals, spans = run_invocations(
        wl, seed, start, args.seconds, traced, cli, out, config, reference, setup)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pool = warm if pool_workers > 1 else None
    identity = "not applicable (single worker)"
    if pool is not None:
        pool_identity(wl, pool_workers, pool, out)
        identity = ("DIFFERS" if any(pool.problems)
                    else f"byte-identical at workers=1 and workers={pool_workers}")

    problems = [p for inv in [warm] + invocations for p in inv.problems]
    attempted = len(problems)
    failed = sum(1 for p in problems if p)
    if traced:
        metrics = traced_metrics(invocations, residuals, mode_rates, pool)
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        metrics = {"wall_s": statistics.median(i.wall_s for i in invocations),
                   "cpu_s": statistics.median(i.cpu_s for i in invocations),
                   "peak_rss_mb": peak_rss_mb,
                   "setup_s": statistics.median(setup)}
        units = END_TO_END_UNITS

    result = {"workload": wl.name, "seed": seed, "config_seed": wl.config_seed(seed),
              "trace": args.trace, "seconds": args.seconds, "machine": machine,
              "workers": 1, "pool_workers": pool_workers, "kernel_agreement": agreement,
              "export_identity": identity, "setup_s_samples": setup,
              "warm_up": {"workers": pool_workers, "wall_s": warm.wall_s, "cpu_s": warm.cpu_s,
                          "sys_s": warm.sys_s, "code": warm.code, "problems": warm.problems},
              "invocations": [{"traced": i.traced, "wall_s": i.wall_s, "cpu_s": i.cpu_s,
                               "sys_s": i.sys_s, "code": i.code, "problems": i.problems}
                              for i in invocations],
              "metrics": metrics}
    with open(os.path.join(out, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if spans:
        tracing.write_spans(os.path.join(out, "spans.json.gz"), spans)
    for name in os.listdir(out):
        if os.path.isdir(os.path.join(out, name)):
            shutil.rmtree(os.path.join(out, name), ignore_errors=True)

    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload: {wl.name} seed={seed} config_seed={wl.config_seed(seed)} "
          f"workers=1 pool_workers={pool_workers} invocations={len(invocations)} "
          f"trace={args.trace}")
    print(f"kernel agreement: {agreement}")
    print(f"export identity: {identity}")
    for p in problems:
        if p:
            print(f"FAILED: {p}")
    print(f"failed_frac = {failed / attempted} ratio ({failed} of {attempted} operations)")
    if traced:
        split = tracing.wall_by_layer(metrics)
        print("traced wall by layer: " + ", ".join(
            f"{k} {v:.3f} s ({v / metrics['trace.wall_s']:.1%})"
            for k, v in sorted(split.items(), key=lambda kv: -kv[1]))
              + f"; largest: {max(split, key=split.get)}")
    elif wl.simulate:
        print(f"agent_days_per_s = {wl.agent_days() / metrics['wall_s']} agent-days/s")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    print(json.dumps({"correct": failed == 0 and agreement_ok, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
