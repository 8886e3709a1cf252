"""E4/E14 — Figure 5 / Example 3.7: fixpoint convergence behaviour.

Three series:

* the Θ(n) chain: iterations grow linearly with n (tightness of
  Proposition 3.4);
* the single-back-and-forth chain: iterations stay ≤ 2s + 2 = 4
  regardless of n (Proposition 3.11);
* the no-back-and-forth running example: 2 iterations (Proposition 3.5).

Plus the PR-8 accelerator measurement: on the worst-case chain the
closure index (``strategy="closure"``) replaces the Θ(n) per-φ
iteration with index probes; the speedup is reported (``benchmarks/e2e``
cli-ask is the regression watch) and the deltas must be byte-identical
either way.  ``--strategy`` pins one schedule for the whole module;
without it the two iteration-count series run the fixpoint (Figure 5
counts its iterations) and the bound checks take the schema's pick.
"""

import time
from dataclasses import asdict

from conftest import print_series

from repro.core import compute_intervention, parse_explanation
from repro.core.intervention import make_strategy
from repro.datasets import chains
from repro.datasets import running_example as rex


def test_fig5_chain_iterations(benchmark, strategy_option):
    sizes = [1, 2, 4, 8, 16]
    # Figure 5 plots the fixpoint's iteration count, so that is the
    # schedule unless --strategy pins the other one.
    strategy = strategy_option or "fixpoint"

    def sweep():
        out = []
        for p in sizes:
            db, phi = chains.example_37(p)
            result = compute_intervention(db, phi, strategy=strategy)
            out.append((db.total_rows(), result.iterations))
        return out

    series = benchmark(sweep)
    print_series("Figure 5: chain size n vs fixpoint iterations", series)
    benchmark.extra_info["series"] = series
    benchmark.extra_info["strategy"] = strategy
    for n, iters in series:
        if strategy == "closure":
            # Closure repair rounds are bounded by the fixpoint count
            # but collapse to 1 on the pure chain.
            assert iters <= n - 2
        else:
            assert iters == n - 2  # 4p - 1 with n = 4p + 1 (see chains.py)


def test_fig5_single_bf_constant_iterations(benchmark, strategy_option):
    sizes = [1, 4, 16]

    def sweep():
        out = []
        for p in sizes:
            db, phi = chains.single_back_and_forth_chain(p)
            result = compute_intervention(db, phi, strategy=strategy_option)
            out.append((db.total_rows(), result.iterations))
        return out

    series = benchmark(sweep)
    print_series(
        "Prop 3.11: single b&f chain, n vs iterations (bound = 4)", series
    )
    assert all(iters <= 4 for _, iters in series)


def test_fig5_no_bf_two_iterations(benchmark, strategy_option):
    db = rex.database(back_and_forth=False)
    phi = parse_explanation("Author.dom = 'com'")

    def run():
        return compute_intervention(db, phi, strategy=strategy_option)

    result = benchmark(run)
    print(f"\n== Prop 3.5: no b&f keys -> {result.iterations} iterations ==")
    assert result.iterations <= 2


def test_fig5_fixpoint_cost_scales(benchmark, strategy_option):
    """Wall-clock of one full fixpoint on the largest chain."""
    db, phi = chains.example_37(32)  # n = 129
    strategy = strategy_option or "fixpoint"
    result = benchmark(
        lambda: compute_intervention(db, phi, strategy=strategy)
    )
    benchmark.extra_info["iterations"] = result.iterations
    if strategy == "closure":
        assert result.iterations == 1
    else:
        assert result.iterations == chains.expected_iterations(32)


def _best_of(fn, reps):
    """(min, median) wall-clock seconds over *reps* calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[0], times[len(times) // 2]


def test_fig5_closure_speedup(preset, json_record):
    """Closure probes vs the Θ(n) fixpoint: same Δ^φ, measured speedup.

    Worst-case chain (Example 3.7 shape, p=3): the fixpoint pays 4p - 1
    iterations per φ; the closure index answers from precomputed
    reachability (one productive round).  The index build is amortized
    across the many candidate φ of a cube, so it is warmed outside the
    timed region and reported separately.
    """
    p = 3
    reps = 60 if preset == "small" else 200
    db, phi = chains.example_37(p)
    fixpoint = make_strategy(db, strategy="fixpoint")
    closure = make_strategy(db, strategy="closure")

    t0 = time.perf_counter()
    closure.compute(phi)  # builds + caches the ClosureIndex
    build_seconds = time.perf_counter() - t0

    fix_min, fix_med = _best_of(lambda: fixpoint.compute(phi), reps)
    clo_min, clo_med = _best_of(lambda: closure.compute(phi), reps)

    fix_result = fixpoint.compute(phi)
    clo_result = closure.compute(phi)
    assert fix_result.delta == clo_result.delta  # byte-identical Δ^φ
    assert clo_result.iterations == 1

    speedup = fix_min / clo_min
    json_record(
        "fig5_closure_speedup",
        preset=preset,
        p=p,
        rows=db.total_rows(),
        speedup=round(speedup, 2),
        fixpoint={
            "iterations": fix_result.iterations,
            "min_s": fix_min,
            "median_s": fix_med,
            "trace": [asdict(t) for t in fix_result.trace],
        },
        closure={
            "rounds": clo_result.iterations,
            "build_s": build_seconds,
            "min_s": clo_min,
            "median_s": clo_med,
            "trace": [asdict(t) for t in clo_result.trace],
        },
    )
    print(
        f"\n== Closure speedup (p={p}): fixpoint {fix_min * 1e6:.0f}us "
        f"({fix_result.iterations} iters) vs closure {clo_min * 1e6:.0f}us "
        f"(build {build_seconds * 1e6:.0f}us) -> {speedup:.1f}x =="
    )
