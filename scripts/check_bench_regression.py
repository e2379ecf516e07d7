#!/usr/bin/env python3
"""Scaling-model regression gate over parcm-bench-v1 artifacts.

Compares a freshly produced bench run against the committed BENCH_*.json
baseline(s) and fails when a benchmark got slower than the threshold allows
or when a deterministic counter (relaxations, constprop_relaxations and
placement_nodes by default) grew at all or is no longer reported.

Instead of diffing raw per-size timings — noisy on shared CI runners — the
gate fits a power-law scaling model t(n) = a * n^b (log-log least squares,
Extra-P style) to every benchmark family, e.g. BM_SequentialChain/{64, 512,
4096, 8192}, in both baseline and fresh data, and compares the *model
predictions* at the largest common size. A single noisy point barely moves
the fit, so the timing verdict is stable; families with a single size fall
back to the direct ratio.

Deterministic counters are schedule-independent by construction (the repo's
determinism suite holds that), so any growth is a real algorithmic
regression and is always a hard failure, even with --advisory-timing. So
is a hard counter that a baseline row carries and the fresh run no longer
reports, or a whole such row gone missing: a bench that stops counting
must not pass.

With --history the gate fits *trends* instead of a single baseline pair:
scripts/run_bench.sh snapshots every run into bench/history/<utc>-<commit>/
and the timestamp prefix keeps directory order chronological. The trend
report prints each family's model prediction per snapshot plus the overall
drift; when --fresh files are also given, the fresh run is gated against
the *median* of the history predictions (robust to one noisy snapshot)
rather than against a single committed file.

Usage:
  check_bench_regression.py --baseline BENCH_x.json --fresh new/BENCH_x.json
      [--threshold 1.5] [--counter relaxations] [--advisory-timing]
  check_bench_regression.py --history bench/history [--fresh new/BENCH_x.json]
  check_bench_regression.py --self-test

Multiple --baseline/--fresh files pair up by their "bench" field. Exit
codes: 0 clean (or advisory-only findings), 1 regression, 2 usage error
(including a named --baseline or --fresh file that does not exist).
"""

import argparse
import json
import math
import os
import sys

# Counters that are deterministic outputs of the algorithms (not timings);
# growth in any of these is a hard failure. relaxations: worklist pops of
# the fixpoint solvers (bench_fixpoint) and of DCE's liveness solves
# (bench_pipeline); constprop_relaxations: the constant-propagation solve's
# (bench_pipeline); placement_nodes: the nodes PCM placement's per-anchor
# MUSTUSE cone solves touch (bench_pipeline).
DEFAULT_HARD_COUNTERS = ["relaxations", "constprop_relaxations",
                         "placement_nodes"]

# Absolute bounds on fresh counters, gated independently of any baseline:
# the shared analysis cache must actually hit on the pooled bench corpus,
# and arena-backed IR allocation must keep residual global-allocator
# traffic bounded. Violations are hard failures even with
# --advisory-timing. A result that does not report the counter is exempt
# (e.g. benches without a batch corpus).
ABSOLUTE_BOUNDS = [
    # (counter, kind, limit): kind "floor" fails when value < limit,
    # "ceiling" fails when value > limit.
    ("cache_hit_rate", "floor", 0.5),
    ("allocs_per_program", "ceiling", 7000.0),
    # The VM differential oracle must stay meaningfully cheaper than the
    # exact enumerative checker on the pooled corpus (bench_exec), and the
    # VM's executional results must stay exact: no sampled schedule may run
    # slower after PCM, and the phase-algebra cost must agree with the
    # analytic model on every pair.
    ("vm_oracle_speedup", "floor", 5.0),
    ("vm_regressed_paths", "ceiling", 0.0),
    ("vm_cost_mismatches", "ceiling", 0.0),
]


# How to produce each kind of input when it is missing.
REGENERATE = {
    "baseline": "scripts/run_bench.sh [BUILD_DIR] writes the committed "
                "baselines BENCH_{fixpoint,pipeline,exec,batch}.json at the "
                "repository root; commit the one that is missing",
    "fresh": "PARCM_BENCH_OUT_DIR=<dir> scripts/run_bench.sh [BUILD_DIR] "
             "writes a fresh run to <dir> without touching the baselines",
}


def missing_inputs(baseline_paths, fresh_paths, out):
    """Names every --baseline/--fresh file that does not exist and how to
    regenerate it; returns True when any is missing."""
    missing = False
    for kind, paths in (("baseline", baseline_paths), ("fresh", fresh_paths)):
        for path in paths:
            if os.path.isfile(path):
                continue
            out(f"error: --{kind} file {path} does not exist; "
                f"{REGENERATE[kind]}")
            missing = True
    return missing


def load_results(path):
    """Returns (bench_name, {result_name: (real_ns, counters)})."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != "parcm-bench-v1":
        raise ValueError(f"{path}: not a parcm-bench-v1 artifact")
    results = {}
    for row in doc.get("results", []):
        results[row["name"]] = (
            float(row.get("real_ns_per_iter", 0.0)),
            dict(row.get("counters", {})),
        )
    return doc.get("bench", "?"), results


def split_family(name):
    """BM_Chain/4096 -> ("BM_Chain", 4096); batch/jobs:4 -> ("batch/jobs", 4).

    Returns (name, None) when no trailing integer exists.
    """
    for sep in ("/", ":"):
        head, _, tail = name.rpartition(sep)
        if head and tail.isdigit():
            return head, int(tail)
    return name, None


def fit_power_law(points):
    """Least-squares fit of t = a * n^b in log-log space.

    points: [(n, t)] with n, t > 0. Returns (a, b); a single point yields
    the exact (t/n^0, 0) constant model.
    """
    pts = [(n, t) for n, t in points if n > 0 and t > 0]
    if not pts:
        return 0.0, 0.0
    if len(pts) == 1:
        return pts[0][1], 0.0
    xs = [math.log(n) for n, _ in pts]
    ys = [math.log(t) for _, t in pts]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:  # repeated sizes: average them
        return math.exp(my), 0.0
    b = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    a = math.exp(my - b * mx)
    return a, b


def group_families(results):
    """{family: [(size, real_ns)]}; sizeless entries get size None."""
    fams = {}
    for name, (real_ns, _) in results.items():
        family, size = split_family(name)
        fams.setdefault(family, []).append((size, real_ns))
    return fams


def compare_timing(base, fresh, threshold, out):
    """Yields (family, ratio, detail) for families slower than threshold."""
    base_fams = group_families(base)
    fresh_fams = group_families(fresh)
    regressions = []
    for family in sorted(base_fams.keys() & fresh_fams.keys()):
        bpts = [(n, t) for n, t in base_fams[family] if n is not None]
        fpts = [(n, t) for n, t in fresh_fams[family] if n is not None]
        if bpts and fpts:
            common = {n for n, _ in bpts} & {n for n, _ in fpts}
            if not common:
                continue
            at = max(common)
            ba, bb = fit_power_law(bpts)
            fa, fb = fit_power_law(fpts)
            base_pred = ba * at**bb
            fresh_pred = fa * at**fb
            detail = (
                f"model n^{bb:.2f} -> n^{fb:.2f}, predicted at n={at}: "
                f"{base_pred:,.0f} ns -> {fresh_pred:,.0f} ns"
            )
        else:
            # No size axis: direct ratio of the single measurements.
            base_pred = base_fams[family][0][1]
            fresh_pred = fresh_fams[family][0][1]
            at = None
            detail = f"{base_pred:,.0f} ns -> {fresh_pred:,.0f} ns"
        if base_pred <= 0:
            continue
        ratio = fresh_pred / base_pred
        status = "ok" if ratio <= threshold else "REGRESSED"
        out(f"  [{status:9s}] {family}: {ratio:.2f}x ({detail})")
        if ratio > threshold:
            regressions.append((family, ratio, detail))
    return regressions


def compare_counters(base, fresh, hard_counters, out):
    """Yields (name, counter, base, fresh) where a hard counter grew, or
    disappeared (fresh is None): the fresh run lost the counter from a
    baseline row that carries it, or lost the whole row."""
    regressions = []
    for name in sorted(base):
        _, bc = base[name]
        fc = fresh[name][1] if name in fresh else None
        for counter in hard_counters:
            if counter not in bc:
                continue
            bval = float(bc[counter])
            if fc is None or counter not in fc:
                what = "row" if fc is None else "counter"
                out(
                    f"  [MISSING  ] {name} {counter}: {bval:,.0f} -> "
                    f"{what} absent from the fresh run"
                )
                regressions.append((name, counter, bval, None))
                continue
            fval = float(fc[counter])
            if fval > bval:
                out(
                    f"  [REGRESSED] {name} {counter}: "
                    f"{bval:,.0f} -> {fval:,.0f}"
                )
                regressions.append((name, counter, bval, fval))
    return regressions


def check_absolute_bounds(fresh_runs, out):
    """Yields (bench, name, counter, value, bound) for every fresh result
    whose counter violates an ABSOLUTE_BOUNDS floor/ceiling."""
    violations = []
    for bench, results in sorted(fresh_runs.items()):
        for name in sorted(results):
            _, counters = results[name]
            for counter, kind, limit in ABSOLUTE_BOUNDS:
                if counter not in counters:
                    continue
                value = float(counters[counter])
                bad = value < limit if kind == "floor" else value > limit
                if bad:
                    rel = "<" if kind == "floor" else ">"
                    out(
                        f"  [BOUND    ] {bench}/{name} {counter}: "
                        f"{value:,.3f} {rel} {kind} {limit:,.3f}"
                    )
                    violations.append((bench, name, counter, value, limit))
    return violations


def run_gate(baseline_paths, fresh_paths, threshold, hard_counters,
             advisory_timing, out=print):
    if missing_inputs(baseline_paths, fresh_paths, out):
        return 2
    baselines = {}
    for path in baseline_paths:
        bench, results = load_results(path)
        baselines.setdefault(bench, {}).update(results)
    fresh_runs = {}
    for path in fresh_paths:
        bench, results = load_results(path)
        fresh_runs.setdefault(bench, {}).update(results)

    timing_regs, counter_regs = [], []
    matched = sorted(baselines.keys() & fresh_runs.keys())
    if not matched:
        out("no bench name overlaps between baseline and fresh artifacts")
        return 2
    for bench in matched:
        out(f"bench {bench}:")
        timing_regs += compare_timing(
            baselines[bench], fresh_runs[bench], threshold, out
        )
        counter_regs += compare_counters(
            baselines[bench], fresh_runs[bench], hard_counters, out
        )
    for bench in sorted(fresh_runs.keys() - baselines.keys()):
        out(f"bench {bench}: no committed baseline, skipping")
    bound_regs = check_absolute_bounds(fresh_runs, out)

    if bound_regs:
        out(f"FAIL: {len(bound_regs)} absolute counter bound violation(s)")
        return 1
    if counter_regs:
        out(f"FAIL: {len(counter_regs)} deterministic counter regression(s)")
        return 1
    if timing_regs:
        if advisory_timing:
            out(
                f"ADVISORY: {len(timing_regs)} timing regression(s) beyond "
                f"{threshold:.2f}x (not failing: --advisory-timing)"
            )
            return 0
        out(
            f"FAIL: {len(timing_regs)} timing regression(s) beyond "
            f"{threshold:.2f}x"
        )
        return 1
    out("bench regression gate: clean")
    return 0


def scan_history(history_dir):
    """[(snapshot_name, {bench: results})], chronological.

    Snapshot directories are named <utc-timestamp>-<commit> by
    run_bench.sh, so lexicographic order is chronological order. Non-bench
    files (meta.json) and unreadable artifacts are skipped.
    """
    snapshots = []
    for name in sorted(os.listdir(history_dir)):
        snap_dir = os.path.join(history_dir, name)
        if not os.path.isdir(snap_dir):
            continue
        benches = {}
        for fname in sorted(os.listdir(snap_dir)):
            if not (fname.startswith("BENCH_") and fname.endswith(".json")):
                continue
            try:
                bench, results = load_results(os.path.join(snap_dir, fname))
            except (OSError, ValueError, KeyError):
                continue
            benches.setdefault(bench, {}).update(results)
        if benches:
            snapshots.append((name, benches))
    return snapshots


def family_prediction(points):
    """Model prediction at the family's largest size (or the single value)."""
    pts = [(n, t) for n, t in points if n is not None]
    if pts:
        at = max(n for n, _ in pts)
        a, b = fit_power_law(pts)
        return a * at**b
    return points[0][1] if points else 0.0


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def run_trend(history_dir, fresh_paths, threshold, hard_counters,
              advisory_timing, out=print):
    """Trend report over bench/history snapshots; gates --fresh against the
    per-family median of the history predictions when fresh files are given.
    Deterministic counters are gated against the newest snapshot (they are
    exact, so no median smoothing is needed)."""
    snapshots = scan_history(history_dir)
    if not snapshots:
        out(f"no snapshots under {history_dir} — run scripts/run_bench.sh")
        return 2

    # (bench, family) -> [(snapshot_name, predicted_ns)]
    series = {}
    for snap_name, benches in snapshots:
        for bench, results in benches.items():
            for family, points in group_families(results).items():
                pred = family_prediction(points)
                if pred > 0:
                    series.setdefault((bench, family), []).append(
                        (snap_name, pred)
                    )

    out(f"history: {len(snapshots)} snapshot(s) under {history_dir}")
    for (bench, family), preds in sorted(series.items()):
        drift = preds[-1][1] / preds[0][1] if preds[0][1] > 0 else 1.0
        trail = ", ".join(f"{p:,.0f}" for _, p in preds[-5:])
        out(
            f"  {bench}/{family}: drift {drift:.2f}x over "
            f"{len(preds)} run(s) [{trail} ns]"
        )

    if not fresh_paths:
        out("trend report only (no --fresh run to gate)")
        return 0
    if missing_inputs([], fresh_paths, out):
        return 2

    fresh_runs = {}
    for path in fresh_paths:
        bench, results = load_results(path)
        fresh_runs.setdefault(bench, {}).update(results)

    timing_regs, counter_regs = [], []
    newest_bench = snapshots[-1][1]
    for bench, results in sorted(fresh_runs.items()):
        out(f"bench {bench} vs history median:")
        for family, points in sorted(group_families(results).items()):
            hist = series.get((bench, family))
            if not hist:
                continue
            base_pred = median([p for _, p in hist])
            fresh_pred = family_prediction(points)
            if base_pred <= 0 or fresh_pred <= 0:
                continue
            ratio = fresh_pred / base_pred
            status = "ok" if ratio <= threshold else "REGRESSED"
            out(
                f"  [{status:9s}] {family}: {ratio:.2f}x "
                f"(median of {len(hist)} run(s): {base_pred:,.0f} ns -> "
                f"{fresh_pred:,.0f} ns)"
            )
            if ratio > threshold:
                timing_regs.append((family, ratio))
        if bench in newest_bench:
            counter_regs += compare_counters(
                newest_bench[bench], results, hard_counters, out
            )
    bound_regs = check_absolute_bounds(fresh_runs, out)

    if bound_regs:
        out(f"FAIL: {len(bound_regs)} absolute counter bound violation(s)")
        return 1
    if counter_regs:
        out(f"FAIL: {len(counter_regs)} deterministic counter regression(s)")
        return 1
    if timing_regs:
        if advisory_timing:
            out(
                f"ADVISORY: {len(timing_regs)} timing regression(s) beyond "
                f"{threshold:.2f}x vs history median (not failing)"
            )
            return 0
        out(
            f"FAIL: {len(timing_regs)} timing regression(s) beyond "
            f"{threshold:.2f}x vs history median"
        )
        return 1
    out("bench trend gate: clean")
    return 0


def make_fixture(scale_time=1.0, relaxations=25, constprop_relaxations=40,
                 placement_nodes=90):
    """A parcm-bench-v1 document with one 3-size family and one singleton."""
    results = []
    for n in (64, 512, 4096):
        results.append(
            {
                "name": f"BM_Fixture/{n}",
                "iterations": 10,
                "real_ns_per_iter": scale_time * 100.0 * n,
                "cpu_ns_per_iter": scale_time * 100.0 * n,
                "counters": {
                    "relaxations": relaxations,
                    "constprop_relaxations": constprop_relaxations,
                    "placement_nodes": placement_nodes,
                    "nodes": n,
                },
            }
        )
    results.append(
        {
            "name": "BM_FixtureSingle",
            "iterations": 10,
            "real_ns_per_iter": scale_time * 5000.0,
            "cpu_ns_per_iter": scale_time * 5000.0,
            "counters": {},
        }
    )
    return {"schema": "parcm-bench-v1", "bench": "fixture", "results": results}


def make_batch_fixture(hit_rate=0.8, allocs=1100.0):
    """A parcm-bench-v1 batch-scaling document exercising ABSOLUTE_BOUNDS."""
    results = []
    for jobs in (1, 4):
        results.append(
            {
                "name": f"batch/jobs:{jobs}",
                "iterations": 1,
                "real_ns_per_iter": 1e9 / jobs,
                "cpu_ns_per_iter": 1e9,
                "counters": {
                    "programs": 100,
                    "cache_hit_rate": hit_rate,
                    "allocs_per_program": allocs,
                },
            }
        )
    return {"schema": "parcm-bench-v1", "bench": "batch_fixture",
            "results": results}


def make_exec_fixture(speedup=12.0, regressed=0.0, mismatches=0.0):
    """A parcm-bench-v1 bench_exec document exercising the VM bounds."""
    results = [
        {
            "name": "BM_VmOracleSpeedup",
            "iterations": 3,
            "real_ns_per_iter": 1e8,
            "cpu_ns_per_iter": 1e8,
            "counters": {"vm_oracle_speedup": speedup},
        },
        {
            "name": "BM_VmCorpus",
            "iterations": 3,
            "real_ns_per_iter": 5e7,
            "cpu_ns_per_iter": 5e7,
            "counters": {
                "pairs": 144,
                "vm_regressed_paths": regressed,
                "vm_cost_mismatches": mismatches,
            },
        },
    ]
    return {"schema": "parcm-bench-v1", "bench": "exec_fixture",
            "results": results}


def self_test(threshold):
    """Hermetic check that the gate accepts clean runs and rejects a 2x
    slowdown and a counter growth. Exercised by ctest so the gate itself
    cannot silently rot."""
    import tempfile, os

    def write(doc):
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as f:
            json.dump(doc, f)
        return path

    quiet = lambda *_: None
    base = write(make_fixture())
    same = write(make_fixture(scale_time=1.04))  # within noise
    slow = write(make_fixture(scale_time=2.0))  # 2x slower: must fail
    more = write(make_fixture(relaxations=26))  # counter grew: must fail
    more_cp = write(make_fixture(constprop_relaxations=41))  # likewise
    more_pl = write(make_fixture(placement_nodes=91))  # likewise
    # A hard counter that disappears must fail like one that grew: the
    # fresh run drops the counter from a row, or drops a whole row.
    no_counter = make_fixture()
    del no_counter["results"][1]["counters"]["constprop_relaxations"]
    no_counter = write(no_counter)
    no_row = make_fixture()
    del no_row["results"][2]
    no_row = write(no_row)

    failures = []
    if run_gate([base], [same], threshold, DEFAULT_HARD_COUNTERS, False,
                quiet) != 0:
        failures.append("clean run rejected")
    if run_gate([base], [slow], threshold, DEFAULT_HARD_COUNTERS, False,
                quiet) != 1:
        failures.append("2x slowdown accepted")
    if run_gate([base], [slow], threshold, DEFAULT_HARD_COUNTERS, True,
                quiet) != 0:
        failures.append("advisory timing mode still failed")
    if run_gate([base], [more], threshold, DEFAULT_HARD_COUNTERS, True,
                quiet) != 1:
        failures.append("counter growth accepted")
    if run_gate([base], [more_cp], threshold, DEFAULT_HARD_COUNTERS, True,
                quiet) != 1:
        failures.append("constprop_relaxations growth accepted")
    if run_gate([base], [more_pl], threshold, DEFAULT_HARD_COUNTERS, True,
                quiet) != 1:
        failures.append("placement_nodes growth accepted")
    for path, row, counter, what in (
            (no_counter, "BM_Fixture/512", "constprop_relaxations",
             "dropped hard counter"),
            (no_row, "BM_Fixture/4096", "relaxations", "dropped row")):
        lines = []
        code = run_gate([base], [path], threshold, DEFAULT_HARD_COUNTERS,
                        True, lines.append)
        named = any(row in l and counter in l for l in lines)
        if code != 1 or not named:
            failures.append(f"{what} accepted or not named")
    a, b = fit_power_law([(64, 6400.0), (512, 51200.0), (4096, 409600.0)])
    if not (abs(a - 100.0) < 1e-6 and abs(b - 1.0) < 1e-9):
        failures.append(f"power-law fit off: a={a} b={b}")

    # Absolute bounds: a healthy batch run passes, a cold cache and an
    # allocation blow-up fail hard — even in advisory timing mode.
    batch_ok = write(make_batch_fixture())
    batch_cold = write(make_batch_fixture(hit_rate=0.2))
    batch_fat = write(make_batch_fixture(allocs=40000.0))
    if run_gate([batch_ok], [batch_ok], threshold, DEFAULT_HARD_COUNTERS,
                False, quiet) != 0:
        failures.append("healthy batch run rejected by absolute bounds")
    if run_gate([batch_ok], [batch_cold], threshold, DEFAULT_HARD_COUNTERS,
                False, quiet) != 1:
        failures.append("cache_hit_rate below floor accepted")
    if run_gate([batch_ok], [batch_fat], threshold, DEFAULT_HARD_COUNTERS,
                True, quiet) != 1:
        failures.append("allocs_per_program above ceiling accepted")

    # VM executional bounds: a healthy bench_exec run passes; a VM oracle
    # slower than 5x the exact checker, a schedule that regressed after
    # PCM, or a VM-vs-analytic cost drift each fail hard.
    exec_ok = write(make_exec_fixture())
    exec_slow = write(make_exec_fixture(speedup=2.0))
    exec_regressed = write(make_exec_fixture(regressed=3.0))
    exec_drift = write(make_exec_fixture(mismatches=1.0))
    if run_gate([exec_ok], [exec_ok], threshold, DEFAULT_HARD_COUNTERS,
                False, quiet) != 0:
        failures.append("healthy exec run rejected by absolute bounds")
    if run_gate([exec_ok], [exec_slow], threshold, DEFAULT_HARD_COUNTERS,
                False, quiet) != 1:
        failures.append("vm_oracle_speedup below floor accepted")
    if run_gate([exec_ok], [exec_regressed], threshold, DEFAULT_HARD_COUNTERS,
                True, quiet) != 1:
        failures.append("vm_regressed_paths above ceiling accepted")
    if run_gate([exec_ok], [exec_drift], threshold, DEFAULT_HARD_COUNTERS,
                True, quiet) != 1:
        failures.append("vm_cost_mismatches above ceiling accepted")

    # History trend mode: three snapshots with ordinary noise, then a clean
    # fresh run must pass the median gate, a 2x run must fail it, and a
    # counter growth against the newest snapshot must fail hard.
    with tempfile.TemporaryDirectory() as history:
        for i, scale in enumerate((1.0, 1.05, 0.97)):
            snap = os.path.join(history, f"20260101T00000{i}Z-abc{i}")
            os.makedirs(snap)
            with open(os.path.join(snap, "BENCH_fixture.json"), "w") as f:
                json.dump(make_fixture(scale_time=scale), f)
        if run_trend(history, [], threshold, DEFAULT_HARD_COUNTERS, False,
                     quiet) != 0:
            failures.append("history trend report failed on clean history")
        if run_trend(history, [same], threshold, DEFAULT_HARD_COUNTERS,
                     False, quiet) != 0:
            failures.append("history gate rejected a clean fresh run")
        if run_trend(history, [slow], threshold, DEFAULT_HARD_COUNTERS,
                     False, quiet) != 1:
            failures.append("history gate accepted a 2x slowdown")
        if run_trend(history, [more], threshold, DEFAULT_HARD_COUNTERS,
                     True, quiet) != 1:
            failures.append("history gate accepted counter growth")
    # A missing input is a usage error that names the file and how to
    # regenerate it, in both gate modes.
    absent = os.path.join(tempfile.gettempdir(), "parcm-absent-BENCH_x.json")
    for baselines, fresh, kind in (([absent], [base], "baseline"),
                                   ([base], [absent], "fresh")):
        lines = []
        code = run_gate(baselines, fresh, threshold, DEFAULT_HARD_COUNTERS,
                        False, lines.append)
        named = any(absent in l and f"--{kind}" in l and "run_bench.sh" in l
                    for l in lines)
        if code != 2 or not named:
            failures.append(f"missing --{kind} file not reported by name")
    with tempfile.TemporaryDirectory() as history:
        snap = os.path.join(history, "20260101T000000Z-abc0")
        os.makedirs(snap)
        with open(os.path.join(snap, "BENCH_fixture.json"), "w") as f:
            json.dump(make_fixture(), f)
        lines = []
        code = run_trend(history, [absent], threshold, DEFAULT_HARD_COUNTERS,
                         False, lines.append)
        if code != 2 or not any(absent in l for l in lines):
            failures.append("missing --fresh file not reported in history mode")

    empty = tempfile.mkdtemp()
    if run_trend(empty, [], threshold, DEFAULT_HARD_COUNTERS, False,
                 quiet) != 2:
        failures.append("empty history dir not reported as usage error")
    os.rmdir(empty)

    for path in (base, same, slow, more, more_cp, more_pl, no_counter, no_row,
                 batch_ok, batch_cold,
                 batch_fat,
                 exec_ok, exec_slow, exec_regressed, exec_drift):
        os.unlink(path)
    if failures:
        print("self-test FAILED:", "; ".join(failures))
        return 1
    print("self-test passed")
    return 0


def report(line):
    """Command-line out(): usage errors to stderr, the report to stdout."""
    print(line, file=sys.stderr if line.startswith("error:") else sys.stdout)


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline", action="append", default=[],
                   help="committed parcm-bench-v1 artifact (repeatable)")
    p.add_argument("--fresh", action="append", default=[],
                   help="freshly produced artifact (repeatable)")
    p.add_argument("--threshold", type=float, default=1.5,
                   help="timing ratio above which a family regressed "
                        "(default 1.5)")
    p.add_argument("--counter", action="append", default=[],
                   dest="counters",
                   help="deterministic counter treated as a hard gate "
                        "(default: relaxations, constprop_relaxations, "
                        "placement_nodes)")
    p.add_argument("--advisory-timing", action="store_true",
                   help="report timing regressions without failing; "
                        "deterministic counters still fail hard")
    p.add_argument("--history",
                   help="bench/history directory of run_bench.sh snapshots: "
                        "print per-family trends, and gate --fresh against "
                        "the history median instead of --baseline")
    p.add_argument("--self-test", action="store_true",
                   help="run the hermetic fixture checks and exit")
    args = p.parse_args(argv)

    if args.self_test:
        return self_test(args.threshold)
    hard = args.counters or DEFAULT_HARD_COUNTERS
    if args.history:
        try:
            return run_trend(args.history, args.fresh, args.threshold, hard,
                             args.advisory_timing, report)
        except (OSError, ValueError, KeyError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
    if not args.baseline or not args.fresh:
        p.error("--baseline and --fresh are required "
                "(or use --history / --self-test)")
    try:
        return run_gate(args.baseline, args.fresh, args.threshold, hard,
                        args.advisory_timing, report)
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
