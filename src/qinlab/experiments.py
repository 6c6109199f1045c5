"""Parameter sweeps emitting CSV, with run manifests for reproducibility.

Each sweep is a pure function of its configuration; rows are sorted
deterministically and floats rendered with shortest round-trip repr, so the
same config produces byte-identical files. Every run writes a
``<output>.manifest.json`` recording the config and the package version
next to the CSV.

Sweeps (baseline path length and attacked position are explicit, recorded
parameters -- the ratio is length-dependent for the tree-dependent family):

* ``sybil_ratio``       -- post-split to pre-split payout ratio per split
  count, cp-schedule vs contribution mechanism, across common-split rho.
* ``collusion_ratio``   -- merged to separate payout ratio per merge size,
  sp-schedule vs contribution mechanism, across rho.
* ``budget_ratio``      -- total payout over budget per path length for all
  three mechanisms at one rho.
* ``gcrm_sybil_alpha``  -- contribution-mechanism split ratios per alpha;
  rows stop at the break-even split count for that alpha.
* ``gcrm_collusion_alpha`` -- contribution-mechanism merge ratios per alpha.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path

from . import __version__, adversary, analytics, mechanisms

OUT_DIR_ENV = "QINLAB_OUT_DIR"

EXPERIMENTS = ("sybil_ratio", "collusion_ratio", "budget_ratio",
               "gcrm_sybil_alpha", "gcrm_collusion_alpha")

HEADERS = {
    "sybil_ratio": ("mechanism", "rho", "lambda", "ratio"),
    "collusion_ratio": ("mechanism", "rho", "merge_size", "ratio"),
    "budget_ratio": ("mechanism", "n", "total_over_budget"),
    "gcrm_sybil_alpha": ("alpha", "lambda", "ratio", "lambda_star"),
    "gcrm_collusion_alpha": ("alpha", "merge_size", "ratio", "lambda_star"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    rho_values: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    alpha_values: tuple[float, ...] = (0.3, 0.4, 0.5, 0.6, 0.7)
    n_base: int = 3       # baseline path length for attack ratios
    position: int = 1     # attacked position on that path
    n_max: int = 30
    lambda_max: int = 10
    gamma_max: int = 10
    budget: float = 1.0
    rho: float = 0.6      # budget_ratio runs at a single rho
    output_path: str = ""

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}; "
                             f"choose from {EXPERIMENTS}")
        if self.n_base < 1:
            raise ValueError("n_base must be >= 1")
        if self.experiment in ("sybil_ratio", "collusion_ratio") \
                and not self.rho_values:
            raise ValueError("rho_values must be non-empty")
        if self.experiment.startswith("gcrm_") and not self.alpha_values:
            raise ValueError("alpha_values must be non-empty")

    def resolved_output(self) -> Path:
        name = self.output_path or f"{self.experiment}.csv"
        path = Path(name)
        if not path.is_absolute():
            path = Path(os.environ.get(OUT_DIR_ENV, ".")) / path
        return path


def parse_config_file(path) -> ExperimentConfig:
    """Flat key = value file mirroring the config fields; lists are
    comma-separated, blank lines and #-comments ignored."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        raw[key] = value
    return config_from_mapping(raw)


def _config_number(value, kind, key: str):
    """An ``int`` or ``float`` config value: a number of that kind (an int
    serves as a float; a bool never serves) or config-file text that
    ``kind`` parses."""
    if type(value) is kind or (kind is float and type(value) is int) \
            or isinstance(value, str):
        try:
            return kind(value)
        except ValueError:
            pass
    what = "an integer" if kind is int else "a number"
    raise ValueError(f"{key} must be {what}, got {value!r}")


def config_from_mapping(raw) -> ExperimentConfig:
    kwargs = {}
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    for key, value in raw.items():
        if key not in fields:
            raise ValueError(f"unknown config key {key!r}")
        if key in ("rho_values", "alpha_values"):
            if isinstance(value, str):
                value = [v for v in value.split(",") if v.strip()]
            value = tuple(_config_number(v, float, f"{key} entry")
                          for v in value)
        elif key in ("n_base", "position", "n_max", "lambda_max", "gamma_max"):
            value = _config_number(value, int, key)
        elif key in ("budget", "rho"):
            value = _config_number(value, float, key)
        kwargs[key] = value
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# Row generators (pure)
# ---------------------------------------------------------------------------

def _attack_ratios(gain, spec, config: ExperimentConfig, size_max: int):
    """(``AttackOutcome.size``, ratio) for sizes 1..size_max of ``gain``
    (a split or a merge) at the configured position on the baseline path."""
    for size in range(1, size_max + 1):
        out = gain(spec, config.position, config.n_base, size)
        yield out.size, out.ratio


def _mechanism_ratios(config: ExperimentConfig, gain, names: tuple[str, ...],
                      size_max: int) -> list[tuple]:
    rows = []
    for rho in config.rho_values:
        specs = mechanisms.specs_for_rho(rho, config.budget)
        for name in names:
            rows += [(name, rho, size, ratio) for size, ratio in
                     _attack_ratios(gain, specs[name], config, size_max)]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows


def run_sybil_ratio(config: ExperimentConfig) -> list[tuple]:
    """(mechanism, rho, lambda, ratio): what splitting into ``lambda`` extra
    identities multiplies the attacker's payout by."""
    return _mechanism_ratios(config, adversary.sybil_gain, ("geom", "gcrm"),
                             config.lambda_max)


def run_collusion_ratio(config: ExperimentConfig) -> list[tuple]:
    """(mechanism, rho, merge_size, ratio): what merging ``merge_size``
    consecutive identities multiplies their combined payout by."""
    return _mechanism_ratios(config, adversary.collusion_gain, ("dgm", "gcrm"),
                             config.gamma_max)


def run_budget_ratio(config: ExperimentConfig) -> list[tuple]:
    """(mechanism, n, total/budget) for all three mechanisms at one rho."""
    specs = mechanisms.specs_for_rho(config.rho, config.budget)
    rows = []
    for name in ("dgm", "geom", "gcrm"):
        for n in range(1, config.n_max + 1):
            total = mechanisms.rewards_for_length(n, specs[name]).total
            rows.append((name, n, total / config.budget))
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def run_gcrm_alpha_sweeps(config: ExperimentConfig, kind: str) -> list[tuple]:
    """Contribution-mechanism attack ratios per alpha.

    ``kind`` is "sybil" (rows run to the break-even split count per alpha;
    one past it is already unprofitable) or "collusion" (merge sizes
    2..gamma_max+1). Every row carries that alpha's break-even count.
    """
    rows = []
    for alpha in config.alpha_values:
        spec = mechanisms.gcrm(alpha, config.budget)
        star = analytics.lambda_star(alpha)
        gain, top = ((adversary.sybil_gain, star) if kind == "sybil"
                     else (adversary.collusion_gain, config.gamma_max))
        rows += [(alpha, size, ratio, star) for size, ratio in
                 _attack_ratios(gain, spec, config, top)]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def compute_rows(config: ExperimentConfig) -> list[tuple]:
    if config.experiment == "sybil_ratio":
        return run_sybil_ratio(config)
    if config.experiment == "collusion_ratio":
        return run_collusion_ratio(config)
    if config.experiment == "budget_ratio":
        return run_budget_ratio(config)
    if config.experiment == "gcrm_sybil_alpha":
        return run_gcrm_alpha_sweeps(config, "sybil")
    return run_gcrm_alpha_sweeps(config, "collusion")


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def write_csv(rows, header, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_render(v) for v in row])


def _render(value) -> str:
    # repr floats: shortest round-trip text, no locale involvement
    return repr(value) if isinstance(value, float) else str(value)


def write_manifest(config: ExperimentConfig, path: Path, row_count: int) -> None:
    manifest = {
        "config": dataclasses.asdict(config),
        "experiment": config.experiment,
        "version": __version__,
        "output": path.name,
        "rows": row_count,
    }
    manifest_path = path.with_name(path.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True)
                             + "\n")


def run(config: ExperimentConfig) -> Path:
    """Compute the sweep, write CSV plus manifest, return the CSV path."""
    rows = compute_rows(config)
    path = config.resolved_output()
    write_csv(rows, HEADERS[config.experiment], path)
    write_manifest(config, path, len(rows))
    return path
