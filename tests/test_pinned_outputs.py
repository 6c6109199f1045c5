"""Byte-level pins on the sp/cp and ic/core reports and the default sweep
CSVs.

SHA-256 digests of ``check_sp``/``check_cp`` reports over the whole default
domain, of ic/core reports over two seeded batches of trees, and of the
five default sweep CSVs: a change to any verdict, witness, per-size
verdict, ``equality_at``, ``smallest_violating_lambda``, work counter or
sweep byte fails here. A change that means to alter them says so and
re-derives the digests.
"""

import hashlib
import json

from qinlab import auditor, experiments, mechanisms

ALPHA = 0.3
CAP = {n: mechanisms.beta_cp(n, 1.0, ALPHA) for n in range(1, 41)}

REPORT_DIGESTS = {
    "dgm-0.2-1.0": "958c0644e0a21a6e8bdb1fc8653f81e5f0e0595844f88fd13c8971ccc5737d30",
    "geom-0.2-1.0": "1918df90005486a3a00d9c17f3c727d2b45a59823314dc72cc6ac611790549ac",
    "gcrm-0.2-1.0": "e108a5c133c354a4e3604c9d4058f6550930ded9c1a82741d91c2525d0ae28a3",
    "dgm-0.6-1.0": "7c6cc83f424a8c41d521ad1cf608b93210229b9048b767ba31448bca6d9ef64b",
    "geom-0.6-1.0": "63b9f151d0e47a71020d7c4f71ca35161af2311187178152e0ddba480f913e82",
    "gcrm-0.6-1.0": "4e02989799ca0e481f50d65155532e58ae25238a1bfaac80e72df11c7d705836",
    "dgm-0.95-1.0": "5834ab71dd1b73405e2cc8159bc47e5958e0aa63d07c1c19182ae7db0a132ab1",
    "geom-0.95-1.0": "8278c7611cb810475b1d7b1d5cc7e3a98cc9d91aaae5891b707366216aa1195e",
    "gcrm-0.95-1.0": "230ea272df18e7a0afd6a665bf6681225c1203942ed080513c8d0f36d15459e8",
    "dgm-0.2-1e-13": "74288220dd7c92fc97dc3b8b95370ecb77fc49cea2e59133c84ac0ad0976b874",
    "geom-0.2-1e-13": "4877df0d4a1267108b728014dac64f7e5f52c10379d1c3320952d80c2a8aeb3c",
    "gcrm-0.2-1e-13": "fe9f323331a5d905d923f8248d064b345203f3ec423dfb6e5435edfd4002c93a",
    "dgm-0.6-1e-13": "71a9f46c60ccae90437d36e79a8601a5c261e412a2921f63773877fec2690597",
    "geom-0.6-1e-13": "526aab881ac757afdf6372ec594292f8cce74bb04da22640dab961457f84076f",
    "gcrm-0.6-1e-13": "8061aed2425858fbc4de8abfd7101e8629657b95ef13bc7e8287c2030789d5fe",
    "dgm-0.95-1e-13": "ebbc8c05284907bd97b69545cfee6aee6bb9135d98aff469f64da689c1cc4d50",
    "geom-0.95-1e-13": "adab70efa557ba1ef4a6bdae6701d17a9ccfe945ed0c6cebc27d2ac626c55b27",
    "gcrm-0.95-1e-13": "05cc757ad5c478431a21cb73d96425dd8fa4a706e7ff70a397bb987e2e33e35a",
    "tdgm-sp": "a4d52c1242f241f2b08d598ca5300936fe0a48777cb2e197439eb9ad7daa8a75",
    "tdgm-cp": "24df15449b9a9cecb4f31d08bae0395bf7d00997e1b6a59d0ad130e1d8aa7549",
    "table": "47aea3ecea65e81635a6e1818cf5c103b16fc27c89281ba3db8054c06606815c",
    "over-budget-table": "1ef7c980ebaa4112fa855b7afabf86788fa1e672033ff2b005c58147141d5ff5",
}

# ic/core on generate_trees(30, seed, max_nodes=8) for seeds 0 and 3; the
# three rho = 0.6 specs pass alike (equal reports), the table fails at seed 0
TREE_AUDIT_DIGESTS = {
    "dgm": "7ee1ec6435792285b6ad9de2b775a7f016c4488147e49054b383df3d4ed8d828",
    "geom": "7ee1ec6435792285b6ad9de2b775a7f016c4488147e49054b383df3d4ed8d828",
    "gcrm": "7ee1ec6435792285b6ad9de2b775a7f016c4488147e49054b383df3d4ed8d828",
    "table": "463439f44fda119b37210cb234fe11bd831d93328c8d309140337b6b3246abc0",
}

SWEEP_DIGESTS = {
    "sybil_ratio": "393449b15dd2465a0461995f08303305795ae9ddb8fd127b342fda19c1566838",
    "collusion_ratio": "16f6af99b9895b79def6a28cb658ed7a4ad1580573b78113e03880fff121ce8d",
    "budget_ratio": "9508cca1c5dd55aed5500d52fb5efe693042d28b292a003b992eacbd293f2e00",
    "gcrm_sybil_alpha": "23a002464dce83399b21994d8d5a48c3646c0d30a72eeaa3c52b5624f3eb62eb",
    "gcrm_collusion_alpha": "cf495ca60baba79abd57291a79e52d76d4d89b66fea3eea9a7134e3e8e92edf5",
}


def pinned_specs():
    """dgm/geom/gcrm at three rhos and two budgets, both tdgm schedules, a
    valid beta table and one over the budget, all over lengths 1..40."""
    specs = {}
    for budget in (1.0, 1e-13):
        for rho in (0.2, 0.6, 0.95):
            for name, spec in mechanisms.specs_for_rho(rho, budget).items():
                specs[f"{name}-{rho}-{budget!r}"] = spec
    for beta in ("sp", "cp"):
        specs[f"tdgm-{beta}"] = mechanisms.MechanismSpec(
            mechanisms.TDGM, ALPHA, 1.0, beta)
    specs["table"] = mechanisms.MechanismSpec(
        mechanisms.TDGM, ALPHA, 1.0,
        {n: c * (0.5 + n % 7 / 14) for n, c in CAP.items()})
    specs["over-budget-table"] = mechanisms.MechanismSpec.unchecked(
        mechanisms.TDGM, ALPHA, 1.0,
        {n: c * (1.05 + n % 5 / 10) for n, c in CAP.items()})
    return specs


def test_sp_cp_reports_match_pinned_digests():
    digests = {}
    for label, spec in pinned_specs().items():
        h = hashlib.sha256()
        for report in (auditor.check_sp(spec), auditor.check_cp(spec)):
            h.update(json.dumps(report.to_json(), sort_keys=True).encode()
                     + b"\n")
        digests[label] = h.hexdigest()
    assert digests == REPORT_DIGESTS


def test_ic_core_reports_match_pinned_digests():
    specs = dict(mechanisms.specs_for_rho(0.6))
    specs["table"] = mechanisms.MechanismSpec(
        mechanisms.TDGM, 0.2, 1.0,
        {1: 0.05, 2: 0.1, 3: 0.6, **{n: 0.7 for n in range(4, 13)}})
    digests = {}
    for name, spec in specs.items():
        h = hashlib.sha256()
        for seed in (0, 3):
            for report in auditor.audit(["ic", "core"], spec, trees=30,
                                        seed=seed, max_nodes=8):
                h.update(json.dumps(report.to_json(), sort_keys=True).encode()
                         + b"\n")
        digests[name] = h.hexdigest()
    assert digests == TREE_AUDIT_DIGESTS


def test_default_sweep_csvs_match_pinned_digests(tmp_path):
    digests = {}
    for name in experiments.EXPERIMENTS:
        path = experiments.run(experiments.ExperimentConfig(
            name, output_path=str(tmp_path / f"{name}.csv")))
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == SWEEP_DIGESTS
