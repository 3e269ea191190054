"""Benchmark of the haantjes verifier.

    python3 bench/run.py --workload {appendix,small_models,zero_test,all}
                         [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process, closed loop, one caller, no threads.
With ``--trace 0`` the units run untraced for ``--seconds`` and the
end-to-end metrics are reported; unit times are given in multiples of a
reference work sampled while they run (see ``speed.py``).  With
``--trace 1`` untraced passes over a fixed set of units alternate with
passes in which the public functions of every library module are wrapped
(see ``tracer.py``), and the per-layer metrics are reported.  The last line
of standard output is one JSON object; the lines before it are a readable
table.
``--workload all`` runs every workload in a fresh process, one after another.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback

import speed
import tracer as tr
import workloads

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_PROBES = 5
# Set-up is part interpreter work, which slows down with the reference work,
# and part process start, imports and file reads, which slow down less.
# The full speed ratio over-corrects short set-ups, whose scaled times then
# fall into two clusters (quartile distance over median of ten runs 0.20 on
# the model workloads, against 0.05 with the square root).
SETUP_SPEED_EXPONENT = 0.5
P90_MIN_UNITS = 100
TRACE_PAIRS = 3


def setup_seconds(args) -> tuple:
    """Time from spawning a fresh interpreter until it has set up this
    workload, without the speed probe's own time; median over
    ``SETUP_PROBES`` processes.  Returns (raw seconds, seconds scaled
    towards the nominal reference speed by ``SETUP_SPEED_EXPONENT``)."""
    raw, nominal = [], []
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True)
        ready, probe_s, ref_s = map(float, out.stdout.split()[-3:])
        raw.append(ready - spawned - probe_s)
        nominal.append(raw[-1] * (speed.NOMINAL_REF_S / ref_s) ** SETUP_SPEED_EXPONENT)
    return statistics.median(raw), statistics.median(nominal)


class Tally:
    """Counts units for the table, and inputs for the result line.

    A unit is one call on one of the workload's inputs (unit ``i`` runs
    input ``i % wl.inputs``).  The result line's ``attempted`` is the number
    of distinct inputs run and ``failed`` the number of those with a wrong
    output on at least one call, so both depend on the seed alone, not on
    how many units fit into ``--seconds``.  The table's ``failed_frac`` is
    per unit."""

    def __init__(self):
        self.attempted = self.failed = self.raised = 0
        self.known_defect = self.unexpected = self.proven = 0
        self.inputs_run, self.inputs_failed = set(), set()

    def run(self, wl, i):
        self.attempted += 1
        key = i % wl.inputs
        self.inputs_run.add(key)
        try:
            out = wl.run(i)
        except Exception as exc:  # a unit that raises is a failed unit
            self.failed += 1
            self.raised += 1
            self.inputs_failed.add(key)
            print(f"unit {i} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            if self.raised == 1:
                traceback.print_exc()
            return
        if out.wrong:
            self.failed += 1
            self.inputs_failed.add(key)
            if out.known_defect:
                self.known_defect += 1
            else:
                self.unexpected += 1
                print(f"unit {i}: output differs from its known answer", file=sys.stderr)
        self.proven += out.proven

    @property
    def correct(self) -> bool:
        """Every output matched its known answer, except wrong verdicts of
        the documented exp-of-rational defect, which count in ``failed``."""
        return self.raised == 0 and self.unexpected == 0


def timed_units(wl, tally, seconds):
    """Run units closed-loop until ``seconds`` have passed and every input
    has run at least once, with the speed probe sampling.  Returns (unit
    times without the probe's own time, each unit's reference time, the
    probe)."""
    spans = []
    i = 0
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            tally.run(wl, i)
            t1 = time.perf_counter()
            spans.append((t0, t1))
            i += 1
            if t1 >= deadline and i >= wl.inputs:
                break
        # keep sampling past the last unit, as before every other one
        while time.perf_counter() < t1 + speed.MARGIN:
            pass
    times = [t1 - t0 - probe.spent(t0, t1) for t0, t1 in spans]
    return times, [probe.reference(t0, t1) for t0, t1 in spans], probe


def end_to_end(args, hj, wl, tally):
    times, refs, probe = timed_units(wl, tally, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(times)
    p50 = statistics.median(times)
    # each unit's time in multiples of the reference work timed around it
    rel = [u / r for u, r in zip(times, refs)]
    setup_raw, setup_nominal = setup_seconds(args)
    metrics = {
        "setup_s": (setup_nominal, "s"),
        "unit_ref.p50": (statistics.median(rel), "ref"),
        "units_per_ref": (n / sum(rel), "1/ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    table = [
        ("unit_s.p50", p50, f"s (n={n})"),
        ("unit_s.p90", statistics.quantiles(times, n=10)[-1] if n >= P90_MIN_UNITS else None,
         f"s (n={n})" if n >= P90_MIN_UNITS else f"(n={n} < {P90_MIN_UNITS})"),
        ("units_per_s", n / sum(times), "1/s"),
        ("failed_frac", tally.failed / tally.attempted,
         f"({tally.failed}/{tally.attempted}; exp-of-rational defect {tally.known_defect})"),
    ]
    if args.workload == "zero_test":
        table.append(("proven_frac", tally.proven / tally.attempted, ""))
    table.append(("ref_s.p50", statistics.median(probe.durations),
                  f"s (n={len(probe.durations)}; reference work)"))
    table.append(("setup_raw_s", setup_raw, f"s (median of {SETUP_PROBES} fresh processes)"))
    table += [(name, value, unit) for name, (value, unit) in metrics.items()]
    lines = [f"{args.workload}: seed {args.seed}, {n} units in {sum(times):.2f} s"]
    for name, value, note in table:
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<14} {shown:>12} {note}")
    return metrics, lines


def per_layer(args, hj, wl, tally):
    """One untraced pass over a fixed set of units, then one traced pass
    that gives the layer figures; its counts do not depend on ``--seconds``.
    For ``trace.overhead`` further untraced and traced passes alternate, at
    least ``TRACE_PAIRS`` pairs and until ``--seconds`` have passed, with the
    speed probe sampling; it is the summed time of the traced units over
    that of the untraced units, each unit's time in ref, as for
    ``units_per_ref``.  The probe stays off during the figures pass, so its
    work lands in no span."""
    units = range(wl.trace_units)

    def one_pass(tracer=None):
        if tracer:
            tracer.install(hj)  # ends with a full collection
        else:
            gc.collect()  # so both kinds of pass start from the same heap
        spans = []
        try:
            for i in units:
                if tracer:
                    tracer.unit = i
                t0 = time.perf_counter()
                tally.run(wl, i)
                spans.append((t0, time.perf_counter()))
            return spans
        finally:
            if tracer:
                tracer.uninstall()

    one_pass()
    tracer = tr.Tracer()
    first_traced = sum(t1 - t0 for t0, t1 in one_pass(tracer))

    pairs = []
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + args.seconds
        while len(pairs) < TRACE_PAIRS or time.perf_counter() < deadline:
            pairs.append((one_pass(), one_pass(tr.Tracer())))
        end = pairs[-1][1][-1][1]
        while time.perf_counter() < end + speed.MARGIN:
            pass

    def seconds(spans):
        return sum(t1 - t0 - probe.spent(t0, t1) for t0, t1 in spans)

    def in_ref(spans):
        return sum((t1 - t0 - probe.spent(t0, t1)) / probe.reference(t0, t1)
                   for t0, t1 in spans)

    untraced = [seconds(u) for u, _ in pairs]
    traced = [seconds(t) for _, t in pairs]
    overhead = sum(in_ref(t) for _, t in pairs) / sum(in_ref(u) for u, _ in pairs)

    layers = tracer.layer_totals()
    metrics = {}
    for layer in ("symexpr.arith", "symexpr.is_zero", "symexpr.parse") + tr.MODULE_LAYERS:
        calls, self_s = layers[layer]
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.self_frac"] = (self_s / first_traced, "ratio")
    metrics["symexpr.arith.terms_out.sum"] = (tracer.terms_out_sum, "count")
    metrics["symexpr.arith.terms_out.max"] = (tracer.terms_out_max, "count")
    zero_tests = layers["symexpr.is_zero"][0]
    for tier in ("structural", "cleared", "exact_witness", "exp_group",
                 "float_sampled", "undecided"):
        metrics[f"symexpr.is_zero.tier.{tier}"] = (tracer.tiers[tier], "count")
    metrics["symexpr.is_zero.structural_frac"] = (
        tracer.tiers["structural"] / zero_tests if zero_tests else 0.0, "ratio")
    metrics["torsion.haantjes_torsion.self_s"] = (
        tracer.fn_stats[("torsion", "haantjes_torsion")][1], "s")
    for name in ("parse_model", "run_checks", "report"):
        metrics[f"cli.{name}.self_s"] = (tracer.fn_stats[("cli", name)][1], "s")
    metrics["trace.untraced_pass_s"] = (statistics.median(untraced), "s")
    metrics["trace.traced_pass_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead"] = (overhead, "ratio")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "functions": sorted([layer, name, calls, self_s] for (layer, name), (calls, self_s)
                                in tracer.fn_stats.items() if calls),
            "dropped_spans": tracer.dropped_spans,
            "spans": tracer.spans,
        }, fh)

    lines = [f"{args.workload}: seed {args.seed}, traced pass of {len(units)} units,"
             f" overhead from {len(pairs)} pairs of passes"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<36} {value:12.6g} {unit}")
    return metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.workload == "all":
        for name in workloads.WORKLOADS:
            subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], check=True, timeout=900)
        return 0

    if args.setup_probe:
        with speed.SpeedProbe() as probe:
            workloads.setup(args.workload, workloads.import_haantjes(), args.seed)
        print(time.monotonic(), sum(probe.durations), statistics.median(probe.durations))
        return 0

    hj = workloads.import_haantjes()
    wl = workloads.setup(args.workload, hj, args.seed)

    tally = Tally()
    if args.trace:
        metrics, lines = per_layer(args, hj, wl, tally)
    else:
        metrics, lines = end_to_end(args, hj, wl, tally)
    print("\n".join(lines))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": len(tally.inputs_run),
        "failed": len(tally.inputs_failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
