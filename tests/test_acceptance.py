"""Acceptance suite: one criterion per test, one verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -rA -s`` to see the verdict lines
as they print. Every tolerance is pinned here, in the test, not in helper
configuration.

Criterion 8 does not claim that rounding the stationary point n' of the
total payout to the nearest integer gives the brute-force argmax everywhere:
the peak is skewed, so for alpha <= 0.16 and at 0.76 and 0.91 the argmax sits
one above the rounded value (at alpha = 0.1, n' = 1.443 but T(2) = 0.91736
beats T(1) = 0.90909). What n' does promise is checked instead: on the whole
fine grid the argmax is the better of floor(n') and ceil(n'), floored to 1,
and rounding misses at exactly the pinned set of alphas, always by one. The
same set is frozen in
tests/test_analytics.py::TestNPrime::test_known_rounding_misses.
"""

import json
import math

import numpy as np

from qinlab import adversary, analytics, experiments, mechanisms
from qinlab import auditor, querytree
from qinlab.analytics import ALPHA_GRID, ALPHA_GRID_FINE
from qinlab.cli import main as cli_main
from qinlab.mechanisms import GOLDEN_ALPHA

RHO_GRID = (0.2, 0.4, 0.6, 0.8)

# Grid alphas where rounding n' misses the payout argmax by one.
PAYOUT_ROUNDING_MISSES = frozenset({
    0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.12,
    0.13, 0.14, 0.15, 0.16, 0.76, 0.91})


def _verdict(num, name, problems):
    ok = not problems
    line = f"[{num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if not ok:
        shown = "; ".join(str(p) for p in problems[:4])
        if len(problems) > 4:
            shown += f"; ... {len(problems)} issues total"
        line += f"  ({shown})"
    print(line)
    assert ok, f"{name}: {problems[:10] if problems else ''}"


def test_01_budget_balance_at_common_split():
    problems = []
    specs = mechanisms.specs_for_rho(0.6)
    # native 0.375 maps back to the common split factor 0.6
    assert math.isclose(specs["dgm"].alpha, 0.6, rel_tol=1e-12)
    for name, spec in specs.items():
        for n in range(1, 31):
            total = mechanisms.rewards_for_length(n, spec).total
            if total > spec.budget * (1.0 + 1e-12):
                problems.append(f"{name} n={n} total={total}")
            if name == "geom" and abs(total - spec.budget) > 1e-12:
                problems.append(f"geom n={n} not exactly budget: {total}")
    _verdict(1, "budget balance at common split 0.6, n <= 30", problems)


def test_02_single_split_amplification_formula():
    problems = []
    for alpha in ALPHA_GRID_FINE:
        formula = 1.0 / (1.0 + alpha) + alpha
        termwise = adversary.sybil_gain(mechanisms.gcrm(alpha), 1, 1, 1).ratio
        if abs(formula - termwise) > 1e-12:
            problems.append(f"alpha={alpha}: formula {formula} vs "
                            f"termwise {termwise}")
        if not formula > 1.0:
            problems.append(f"alpha={alpha}: f(1) = {formula} <= 1")
    _verdict(2, "one extra identity amplifies pay by 1/(1+a)+a > 1",
             problems)


def test_03_break_even_split_count():
    problems = []
    # closed form against a term-wise scan at alpha = 0.5
    termwise_star = next(
        lam for lam in range(1, 100)
        if analytics.sybil_factor_termwise(0.5, lam) <= 1.0)
    if analytics.lambda_star(0.5) != 3 or termwise_star != 3:
        problems.append(f"lambda*(0.5) = {analytics.lambda_star(0.5)}, "
                        f"scan = {termwise_star}, expected 3")
    stars = [analytics.lambda_star(a) for a in ALPHA_GRID_FINE]
    if any(s < 2 for s in stars):
        problems.append("lambda* < 2 somewhere on the grid")
    if any(a > b for a, b in zip(stars, stars[1:])):
        problems.append("lambda* not non-decreasing in alpha")
    _verdict(3, "break-even split count: 3 at alpha=0.5, >= 2, monotone",
             problems)


def test_04_rounded_stationary_point_maximizes_amplification():
    problems = []
    for alpha in ALPHA_GRID:
        rounded = analytics.nearest_positive_int(analytics.lambda_prime(alpha))
        peak = analytics.sybil_factor(alpha, rounded)
        for lam in range(1, 1001):
            if analytics.sybil_factor(alpha, lam) > peak:
                problems.append(f"alpha={alpha}: f({lam}) beats f({rounded})")
                break
    for alpha in ALPHA_GRID_FINE:
        worst = max(analytics.sybil_factor(alpha, lam)
                    for lam in range(1, 1001))
        if not worst < 2.0:
            problems.append(f"alpha={alpha}: amplification {worst} >= 2")
    _verdict(4, "rounded stationary point maximizes f; amplification < 2",
             problems)


def test_05_sp_schedule_split_proof_with_exact_boundary():
    problems = []
    for alpha_native in (0.2, 0.375, 0.45):
        spec = mechanisms.dgm(alpha_native)
        for n in range(1, 21):
            for i in range(1, n + 1):
                for lam in range(1, 21):
                    out = adversary.sybil_gain(spec, i, n, lam)
                    if out.profitable:
                        problems.append(
                            f"a={alpha_native} (i,n,lam)=({i},{n},{lam})")
                    if lam == 1 and not out.break_even:
                        problems.append(
                            f"a={alpha_native} ({i},{n}) lam=1 not exactly "
                            f"break-even: {out.reward_before} vs "
                            f"{out.reward_after}")
    _verdict(5, "sp schedule: splits never pay, exact break-even at one fake",
             problems)


def test_06_cp_schedule_merge_proof_but_split_prone():
    problems = []
    for delta in (0.3, 0.6, 0.8):
        spec = mechanisms.delta_geom(delta)
        for gamma in range(1, 21):
            if any(adversary.collusion_gain(spec, i, n, gamma).profitable
                   for n in range(1, 21) for i in range(1, n + 1)):
                problems.append(f"delta={delta}: merge gamma={gamma} pays")
        for lam in range(1, 21):
            if not any(adversary.sybil_gain(spec, i, n, lam).profitable
                       for n in range(1, 21) for i in range(1, n + 1)):
                problems.append(f"delta={delta}: split lam={lam} never pays")
    _verdict(6, "cp schedule: merges never pay, splits pay at every size",
             problems)


def test_07_no_positive_schedule_survives_both_inequalities():
    problems = []
    dgm_report = auditor.impossibility_certificate(
        auditor.reward_table(mechanisms.dgm(0.375), 6))
    if dgm_report.details["cp_m2"] != "fail" or \
            dgm_report.details["sp_m1"] != "pass":
        problems.append(f"sp schedule certificate: {dgm_report.details}")
    geom_report = auditor.impossibility_certificate(
        auditor.reward_table(mechanisms.delta_geom(0.6), 6))
    if geom_report.details["sp_m1"] != "fail" or \
            geom_report.details["cp_m2"] != "pass":
        problems.append(f"cp schedule certificate: {geom_report.details}")
    rng = np.random.default_rng(20260810)
    for index in range(1000):
        n_max = int(rng.integers(3, 7))
        table = auditor.random_positive_table(rng, n_max)
        report = auditor.impossibility_certificate(table)
        if not report.passed or not report.details["failed_properties"]:
            problems.append(f"table #{index} satisfies all three properties")
    _verdict(7, "positivity, split- and merge-proofness never coexist",
             problems)


def test_08_payout_peak_at_rounded_stationary_point():
    problems = []
    np_half = analytics.n_prime(0.5)
    if abs(np_half - 1.864) > 1e-3:
        problems.append(f"n'(0.5) = {np_half}, expected about 1.864")
    best = analytics.optimal_path_length(0.5)
    rounded = analytics.nearest_positive_int(np_half)
    if not (best == rounded == 2):
        problems.append(f"argmax {best} vs rounded {rounded}, expected 2")
    total = mechanisms.rewards_for_length(2, mechanisms.gcrm(0.5)).total
    if abs(total - 7.0 / 9.0) > 1e-9:
        problems.append(f"total at peak {total}, expected 7/9")
    # grid-wide clause: the peak is skewed, so the argmax is the better
    # integer neighbour of n', and rounding misses exactly the pinned set
    for alpha in ALPHA_GRID_FINE:
        if abs(1.0 - alpha * (1.0 + alpha)) < 1e-9:
            continue
        spec = mechanisms.gcrm(alpha)
        best = analytics.optimal_path_length(alpha)
        n_stat = analytics.n_prime(alpha)
        neighbour = max(
            (max(1, math.floor(n_stat)), max(1, math.ceil(n_stat))),
            key=lambda n: mechanisms.rewards_for_length(n, spec).total)
        if best != neighbour:
            problems.append(f"alpha={alpha}: argmax {best} is not the better "
                            f"neighbour {neighbour} of n'={n_stat:.4f}")
        rounded = analytics.nearest_positive_int(n_stat)
        expected = rounded + 1 if alpha in PAYOUT_ROUNDING_MISSES else rounded
        if best != expected:
            problems.append(f"alpha={alpha}: argmax {best}, rounded "
                            f"{rounded}, expected argmax {expected}")
    _verdict(8, "total payout peaks next to n'; rounding misses pinned",
             problems)


def test_09_truthfulness_dominant_on_random_trees():
    problems = []
    trees = querytree.generate_trees(200, seed=2026, max_nodes=10)
    specs = mechanisms.specs_for_rho(0.6)
    for index, tree in enumerate(trees):
        for name, spec in specs.items():
            report = auditor.check_ic(tree, spec)
            if not report.passed:
                problems.append(f"tree #{index} {name}: {report.witness}")
    _verdict(9, "no profitable unilateral deviation on 200 random trees",
             problems)


def test_10_no_blocking_coalition_on_random_trees():
    problems = []
    trees = querytree.generate_trees(100, seed=1337, max_nodes=10)
    specs = mechanisms.specs_for_rho(0.6)
    for index, tree in enumerate(trees):
        for name, spec in specs.items():
            report = auditor.check_core(tree, spec)
            if not report.passed:
                problems.append(f"tree #{index} {name}: {report.witness}")
    _verdict(10, "no blocking coalition on 100 random trees", problems)


def test_11_split_ratios_exact():
    problems = []
    for alpha in ALPHA_GRID:
        tdgm = mechanisms.delta_geom(alpha)
        g = mechanisms.gcrm(alpha)
        for n in range(2, 21):
            for i in range(1, n):
                r_t = (mechanisms.position_reward(i, n, tdgm)
                       / mechanisms.position_reward(i + 1, n, tdgm))
                if not math.isclose(r_t, alpha, rel_tol=1e-12):
                    problems.append(f"tdgm alpha={alpha} ({i},{n}): {r_t}")
                r_g = (mechanisms.position_reward(i, n, g)
                       / mechanisms.position_reward(i + 1, n, g))
                if not math.isclose(r_g, alpha * (1 + alpha), rel_tol=1e-12):
                    problems.append(f"gcrm alpha={alpha} ({i},{n}): {r_g}")
    for alpha in ALPHA_GRID_FINE:
        ratio = alpha * (1.0 + alpha)
        if (ratio <= 1.0 + 1e-12) != (alpha <= GOLDEN_ALPHA + 1e-12):
            problems.append(f"alpha={alpha}: ratio {ratio} vs golden point")
    _verdict(11, "split ratio is alpha (tdgm) and alpha(1+alpha) (gcrm)",
             problems)


def test_12_attack_ratio_orderings():
    problems = []
    sybil_rows = experiments.run_sybil_ratio(
        experiments.ExperimentConfig("sybil_ratio", rho_values=RHO_GRID,
                                     lambda_max=10))
    for rho in RHO_GRID:
        geom = {r[2]: r[3] for r in sybil_rows
                if r[0] == "geom" and r[1] == rho}
        gcrm = {r[2]: r[3] for r in sybil_rows
                if r[0] == "gcrm" and r[1] == rho}
        for lam in range(1, 11):
            if not gcrm[lam] < geom[lam]:
                problems.append(f"sybil rho={rho} lam={lam}: "
                                f"{gcrm[lam]} !< {geom[lam]}")
    merge_rows = experiments.run_collusion_ratio(
        experiments.ExperimentConfig("collusion_ratio", rho_values=RHO_GRID,
                                     gamma_max=9))
    for rho in RHO_GRID:
        dgm = {r[2]: r[3] for r in merge_rows
               if r[0] == "dgm" and r[1] == rho}
        gcrm = {r[2]: r[3] for r in merge_rows
                if r[0] == "gcrm" and r[1] == rho}
        for size in range(2, 11):
            if not gcrm[size] < dgm[size]:
                problems.append(f"merge rho={rho} size={size}: "
                                f"{gcrm[size]} !< {dgm[size]}")
    _verdict(12, "contribution mechanism gains less from either attack",
             problems)


def test_13_byte_identical_reruns(tmp_path):
    problems = []
    for experiment in ("sybil_ratio", "budget_ratio"):
        blobs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir / f"{experiment}.csv"
            config = experiments.ExperimentConfig(
                experiment, lambda_max=8, n_max=12,
                output_path=str(out))
            path = experiments.run(config)
            manifest = path.with_name(path.name + ".manifest.json")
            blobs.append((path.read_bytes(), manifest.read_bytes()))
        csv_a, manifest_a = blobs[0]
        csv_b, manifest_b = blobs[1]
        if csv_a != csv_b:
            problems.append(f"{experiment}: CSV differs between runs")
        if json.loads(manifest_a) != json.loads(manifest_b):
            # output_path records the run directory; everything else must
            # agree exactly
            a, b = json.loads(manifest_a), json.loads(manifest_b)
            a["config"].pop("output_path"), b["config"].pop("output_path")
            if a != b:
                problems.append(f"{experiment}: manifest differs")
    for run_dir in ("c", "d"):
        out = tmp_path / run_dir / "audit.json"
        code = cli_main(["audit", "--mechanism", "gcrm", "--alpha", "0.5",
                         "--property", "po,bb,split,sp,cp", "--format",
                         "json", "--out", str(out), "--seed", "3"])
        if code != 1:  # sp and cp legitimately fail for this alpha
            problems.append(f"audit exited {code}, expected 1")
    if (tmp_path / "c" / "audit.json").read_bytes() != \
            (tmp_path / "d" / "audit.json").read_bytes():
        problems.append("audit JSON differs between runs")
    _verdict(13, "identical config and seed give byte-identical outputs",
             problems)
