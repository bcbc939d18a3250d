"""Experiment runner: JSON configs in, JSON + CSV reports out.

Configs carry a schema_version and are rejected on unknown keys.  Reports
echo the config, list result rows with the fixed CSV columns and a set of
named pass/fail checks; a report passes iff at least one check ran and
every check passed.  Timestamps and runtimes live in dedicated fields so
reports are otherwise deterministic for a fixed config.
"""

from __future__ import annotations

import csv
import inspect
import json
import math
import os
import time
from dataclasses import dataclass, field

from . import instances as inst_mod
from . import sweeps
from .equilibria import (EQ_TOL, BayesianGame, BidGrid, SearchCapExceeded,
                         Strategy, bayesian_welfare, find_pure_nash,
                         is_bayes_nash, is_pure_nash)
from .mechanisms import (DISCRIMINATORY, UNIFORM, AuctionInstance, BidProfile,
                         run_auction, social_welfare)
from .smoothness import (CERTIFICATES, CLASSES, bound_table,
                         theorem6_da_frontier, theorem6_upa_check)
from .welfare import optimal_allocation, poa_ratio

CSV_COLUMNS = ("experiment", "instance", "n", "k", "pricing", "interface",
               "alpha", "lambda", "mu", "margin", "poa", "runtime_ms")

_BASE_KEYS = {"schema_version", "experiment", "seed", "output_json",
              "output_csv"}
_KIND_KEYS = {
    "verify-instance": {"instance", "params"},
    "sweep-key-lemma": {"count", "n_max", "k_max", "alphas",
                        "valuation_class"},
    "certify-smoothness": {"count", "n_max", "k_max", "alphas", "kind",
                           "valuation_class"},
    "find-pne": {"instance_file", "grid", "mode", "cap", "starts",
                 "max_rounds"},
    "verify-bne": {"instance", "game_file", "params", "tolerance"},
    "bound-table": set(),
    "theorem6-frontier": {"params"},
}
_RANDOMIZED = {"sweep-key-lemma", "certify-smoothness"}


class ConfigError(ValueError):
    """Invalid experiment configuration (exit code 2)."""


def _number(options: dict, key: str, default, kind: str,
            above: float = -math.inf, integer: bool = False):
    """options[key], or default when absent, as a finite number > above,
    and an integral one if integer is set.  A bool, a string or a
    non-integral value is a ConfigError: nothing is truncated."""
    value = options.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value <= above
            or integer and value != int(value)):
        raise ConfigError(f"{kind} {key} must be a finite "
                          f"{'integer' if integer else 'number'} above "
                          f"{above}, got {value!r}")
    return int(value) if integer else float(value)


def read_json(path, what: str, parse=lambda data: data):
    """parse(the JSON document at path).  A path that is not a string, a
    file that cannot be read (missing, a directory, not JSON) and a
    KeyError, TypeError or ValueError from parse are each a ConfigError."""
    if not isinstance(path, str):
        raise ConfigError(f"{what}: a path must be a string, got {path!r}")
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _params(cfg: "ExperimentConfig") -> dict:
    """The config's params object, {} when absent."""
    params = cfg.options.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{cfg.experiment} params must be a JSON object, "
                          f"got {params!r}")
    return params


def _call(fn, params: dict, kind: str):
    """fn(**params), once every key of params is a parameter of fn, each
    value read by _number (an integer where fn's default is one).  A
    ValueError from fn, such as an instance constructor refusing a
    parameter value, is a ConfigError."""
    signature = inspect.signature(fn).parameters
    unknown = set(params) - set(signature)
    if unknown:
        raise ConfigError(f"{fn.__name__} takes no {sorted(unknown)}")
    values = {key: _number(params, key, None, kind, integer=isinstance(
        signature[key].default, int)) for key in params}
    try:
        return fn(**values)
    except ValueError as exc:
        raise ConfigError(f"{fn.__name__}: {exc}") from exc


def _check_sweep(kind: str, data: dict):
    """A randomized sweep needs a seed, instance sizes it can draw, one case
    and one positive finite alpha (a sweep that checks nothing would pass),
    and a kind and class of smoothness's tables (no unnamed check runs)."""
    if data.get("seed") is None:
        raise ConfigError(f"{kind} requires a seed")
    for key, above in (("count", 0), ("n_max", 1), ("k_max", 1)):
        _number(data, key, above + 1, kind, above, integer=True)
    alphas = data.get("alphas", (1.0,))
    if not isinstance(alphas, (list, tuple)) or not alphas or not all(
            not isinstance(a, bool) and isinstance(a, (int, float))
            and 0.0 < a < math.inf
            for a in alphas):
        raise ConfigError(f"{kind} alphas must be a non-empty list of "
                          f"positive finite numbers, got {alphas!r}")
    for key, table in (("kind", CERTIFICATES), ("valuation_class", CLASSES)):
        value = data.get(key)
        if key in data and not (isinstance(value, str) and value in table):
            raise ConfigError(f"{kind} {key} must be one of {list(table)}, "
                              f"got {value!r}")


@dataclass
class ExperimentConfig:
    experiment: str
    options: dict
    seed: int | None = None
    output_json: str | None = None
    output_csv: str | None = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        if data.get("schema_version") != 1:
            raise ConfigError("schema_version must be 1")
        kind = data.get("experiment")
        if not isinstance(kind, str) or kind not in _KIND_KEYS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        allowed = _BASE_KEYS | _KIND_KEYS[kind]
        unknown = set(data) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("output_json", "output_csv"):
            if not isinstance(data.get(key) or "", str):
                raise ConfigError(f"{key} must be a path string, "
                                  f"got {data[key]!r}")
        seed = data.get("seed")
        if kind in _RANDOMIZED:
            _check_sweep(kind, data)
        if data.get("mode") == "best_response_dynamics" and seed is None:
            raise ConfigError("best_response_dynamics requires a seed")
        options = {k: v for k, v in data.items() if k not in _BASE_KEYS}
        return ExperimentConfig(kind, options, seed, data.get("output_json"),
                                data.get("output_csv"))


@dataclass
class ExperimentReport:
    config: dict
    rows: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    records: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c["passed"] for c in self.checks)

    def add_row(self, **kwargs):
        row = {c: "" for c in CSV_COLUMNS}
        for key, value in kwargs.items():
            if key not in CSV_COLUMNS:
                raise ValueError(f"unknown CSV column {key!r}")
            row[key] = value
        self.rows.append(row)

    def add_check(self, name: str, passed: bool, value=None, detail: str = ""):
        self.checks.append({"name": name, "passed": bool(passed),
                            "value": value, "detail": detail})

    def to_json(self, runtime_ms: float | None = None):
        return {
            "schema_version": 1,
            "config": self.config,
            "rows": self.rows,
            "checks": self.checks,
            "records": self.records,
            "passed": self.passed,
            "meta": {
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "runtime_ms": runtime_ms,
            },
        }


def _row_ms(t0: float) -> float:
    return round((time.perf_counter() - t0) * 1000.0, 3)


def _run_instance_file(cfg: ExperimentConfig, report: ExperimentReport,
                       path: str):
    """Run every profile in the file through the auction, emit outcome records."""
    def parse(data):
        instance = AuctionInstance.from_json(data)
        entries = data.get("profiles", [])
        return instance, entries, [BidProfile.from_json(e["profile"])
                                   for e in entries]

    instance, entries, profiles = read_json(
        path, "verify-instance: bad instance file", parse)
    opt = optimal_allocation(instance.valuations, instance.k)
    for entry, profile in zip(entries, profiles):
        t0 = time.perf_counter()
        out = run_auction(profile, instance.tie_break, instance.pricing)
        sw = social_welfare(instance.valuations, out.allocation)
        record = {"role": entry.get("role", ""), "profile": profile.to_json(),
                  "welfare": sw, "opt_value": opt.value}
        record.update(out.to_json())
        report.records.append(record)
        report.add_row(experiment=cfg.experiment, instance=path,
                       n=instance.n, k=instance.k, pricing=instance.pricing,
                       interface=profile.interface,
                       poa=poa_ratio(opt.value, sw) if sw > 0 else "",
                       runtime_ms=_row_ms(t0))
    report.add_check("outcomes_computed", True, len(report.records))


def _run_verify_instance(cfg: ExperimentConfig, report: ExperimentReport):
    instance_id = cfg.options.get("instance")
    if not isinstance(instance_id, str):
        raise ConfigError(f"verify-instance instance must be an instance id "
                          f"or a file path, got {instance_id!r}")
    if instance_id.endswith(".json") or os.path.exists(instance_id):
        _run_instance_file(cfg, report, instance_id)
        return
    params = _params(cfg)
    if instance_id not in inst_mod.REGISTRY:
        raise ConfigError(f"unknown instance id {instance_id!r}")
    t0 = time.perf_counter()
    checks = _call(inst_mod.REGISTRY[instance_id][1], params, cfg.experiment)
    for c in checks:
        report.add_check(c.name, c.passed, c.value, c.detail)
    report.add_row(experiment=cfg.experiment, instance=instance_id,
                   runtime_ms=_row_ms(t0))


def _run_sweep_key_lemma(cfg: ExperimentConfig, report: ExperimentReport):
    opts, exp = cfg.options, cfg.experiment
    count = _number(opts, "count", 1000, exp, 0, integer=True)
    n_max = _number(opts, "n_max", 5, exp, 1, integer=True)
    k_max = _number(opts, "k_max", 8, exp, 1, integer=True)
    alphas = tuple(cfg.options.get("alphas", (0.5, 0.87, 1.0, 2.0)))
    vclass = cfg.options.get("valuation_class", "submodular")
    t0 = time.perf_counter()
    result = sweeps.key_lemma_sweep(count, alphas, vclass, cfg.seed,
                                    n_max, k_max)
    report.add_row(experiment=cfg.experiment, instance=f"{vclass}-sweep",
                   alpha=",".join(str(a) for a in alphas),
                   margin=result.min_margin, runtime_ms=_row_ms(t0))
    report.add_check(f"key_lemma_{vclass}", result.passed, result.min_margin,
                     f"{count} cases, worst case {result.worst_case}")


def _run_certify_smoothness(cfg: ExperimentConfig, report: ExperimentReport):
    opts, exp = cfg.options, cfg.experiment
    count = _number(opts, "count", 200, exp, 0, integer=True)
    n_max = _number(opts, "n_max", 5, exp, 1, integer=True)
    k_max = _number(opts, "k_max", 8, exp, 1, integer=True)
    kind = cfg.options.get("kind", "smooth")
    vclass = cfg.options.get("valuation_class", "submodular")
    alphas = tuple(cfg.options.get("alphas", (1.0,)))
    for alpha in alphas:
        t0 = time.perf_counter()
        cert = sweeps.smoothness_sweep(count, alpha, kind, vclass, cfg.seed,
                                       n_max, k_max)
        report.records.append(cert.to_json())
        report.add_row(experiment=cfg.experiment,
                       instance=f"{kind}-{vclass}",
                       pricing=CERTIFICATES[kind], alpha=alpha,
                       **{"lambda": cert.lam}, mu=cert.alpha,
                       margin=cert.margin, poa=cert.implied_poa,
                       runtime_ms=_row_ms(t0))
        report.add_check(f"{kind}_{vclass}_alpha_{alpha}", cert.verified,
                         cert.margin, f"{count} cases")


def _run_find_pne(cfg: ExperimentConfig, report: ExperimentReport):
    path = cfg.options.get("instance_file")
    if not path:
        raise ConfigError("find-pne needs instance_file")
    instance, grid = read_json(
        path, "find-pne: bad instance or options",
        lambda data: (AuctionInstance.from_json(data),
                      BidGrid.from_json(cfg.options["grid"])))
    cap = _number(cfg.options, "cap", 10 ** 8, "find-pne", 0, integer=True)
    starts = _number(cfg.options, "starts", 20, "find-pne", 0, integer=True)
    max_rounds = _number(cfg.options, "max_rounds", 200, "find-pne", 0,
                         integer=True)
    mode = cfg.options.get("mode", "exhaustive")
    if mode not in ("exhaustive", "best_response_dynamics"):
        raise ConfigError(f"unknown find-pne mode {mode!r}")
    t0 = time.perf_counter()
    try:
        result = find_pure_nash(instance, grid, mode, cap=cap,
                                seed=cfg.seed or 0, starts=starts,
                                max_rounds=max_rounds)
    except SearchCapExceeded as exc:
        raise ConfigError(f"find-pne: {exc}") from exc
    opt = optimal_allocation(instance.valuations, instance.k)
    slack = instance.n * instance.k * grid.tick
    all_efficient = True
    for profile, out in zip(result.equilibria, result.outcomes):
        sw = social_welfare(instance.valuations, out.allocation)
        regret = is_pure_nash(profile, instance, grid).max_regret
        report.records.append({
            "profile": profile.to_json(), "welfare": sw,
            "max_regret": regret,
            "poa": poa_ratio(opt.value, sw) if sw > 0 else None,
        })
        report.add_row(experiment=cfg.experiment, instance=path,
                       n=instance.n, k=instance.k, pricing=instance.pricing,
                       interface=grid.interface,
                       poa=poa_ratio(opt.value, sw) if sw > 0 else "",
                       margin=sw - (opt.value - slack),
                       runtime_ms=_row_ms(t0))
        if sw < opt.value - slack - EQ_TOL:
            all_efficient = False
    report.add_check("search_completed", True,
                     len(result.equilibria),
                     "exhaustive" if result.exhaustive else "dynamics (may miss equilibria)")
    if instance.pricing == DISCRIMINATORY:
        report.add_check("pne_welfare_within_grid_slack", all_efficient,
                         len(result.equilibria))


def _run_verify_bne(cfg: ExperimentConfig, report: ExperimentReport):
    tol = _number(cfg.options, "tolerance", 1e-9, "verify-bne")
    params = _params(cfg)
    if cfg.options.get("instance") == "appendix-c":
        game, strat = _call(inst_mod.appendix_c_bayesian, params,
                            cfg.experiment)
    elif cfg.options.get("game_file"):
        game, strat = read_json(
            cfg.options["game_file"], "verify-bne: bad game file",
            lambda data: (BayesianGame.from_json(data["game"]),
                          Strategy.from_json(data["strategy"])))
    else:
        raise ConfigError("verify-bne needs instance='appendix-c' or game_file")
    t0 = time.perf_counter()
    try:
        rep = is_bayes_nash(game, strat)
    except SearchCapExceeded as exc:
        raise ConfigError(f"verify-bne: {exc}") from exc
    # an empty poa marks it undefined, at zero welfare
    e_opt, e_sw = bayesian_welfare(game, strat)
    report.add_row(experiment=cfg.experiment,
                   instance=cfg.options.get("instance") or cfg.options.get("game_file"),
                   n=game.n, k=game.k, pricing=game.pricing,
                   interface=game.grid.interface, margin=rep.max_regret,
                   poa=poa_ratio(e_opt, e_sw) if e_sw > 0 else "",
                   runtime_ms=_row_ms(t0))
    report.add_check("bne_regret", rep.max_regret <= tol, rep.max_regret)


def _run_bound_table(cfg: ExperimentConfig, report: ExperimentReport):
    t0 = time.perf_counter()
    for row in bound_table():
        report.add_row(experiment=cfg.experiment,
                       instance=f"{row.table}/{row.mechanism}/"
                                f"{row.valuation_class}/{row.setting}",
                       pricing=row.mechanism, interface=row.setting,
                       poa=row.value, runtime_ms=_row_ms(t0))
    report.add_check("bound_table_rows", True, len(report.rows))


def _run_theorem6_frontier(cfg: ExperimentConfig, report: ExperimentReport):
    params = _params(cfg)
    k = _number(params, "k", 50, cfg.experiment, 1, integer=True)
    mu = _number(params, "mu", 1.0, cfg.experiment, 0.0)
    tick = _number(params, "tick", 1e-3, cfg.experiment, 0.0)
    t0 = time.perf_counter()
    named = inst_mod.theorem6_da_instance(k, mu)
    frontier = theorem6_da_frontier(named.instance,
                                    named.profile("lower-bound-witness"), mu)
    report.add_row(experiment=cfg.experiment, instance="theorem6-da",
                   n=2, k=k, pricing=DISCRIMINATORY, mu=mu,
                   margin=frontier["bound"] - frontier["lhs"],
                   runtime_ms=_row_ms(t0))
    report.add_check("da_frontier", frontier["holds"], frontier["lhs"],
                     f"bound {frontier['bound']}")
    t0 = time.perf_counter()
    named = inst_mod.theorem6_upa_instance()
    scan = theorem6_upa_check(named.instance,
                              named.profile("lower-bound-witness"), tick)
    report.add_row(experiment=cfg.experiment, instance="theorem6-upa",
                   n=2, k=1, pricing=UNIFORM, margin=scan["total"] - 0.5,
                   runtime_ms=_row_ms(t0))
    report.add_check("upa_frontier_exact_half", scan["exact_half"],
                     scan["total"], scan["frontier"])


_RUNNERS = {
    "verify-instance": _run_verify_instance,
    "sweep-key-lemma": _run_sweep_key_lemma,
    "certify-smoothness": _run_certify_smoothness,
    "find-pne": _run_find_pne,
    "verify-bne": _run_verify_bne,
    "bound-table": _run_bound_table,
    "theorem6-frontier": _run_theorem6_frontier,
}


def run(config: ExperimentConfig | dict) -> ExperimentReport:
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    echo = {"experiment": config.experiment, "seed": config.seed,
            **config.options}
    report = ExperimentReport(config=echo)
    t0 = time.perf_counter()
    _RUNNERS[config.experiment](config, report)
    runtime_ms = _row_ms(t0)
    if config.output_json:
        with open(config.output_json, "w") as fh:
            json.dump(report.to_json(runtime_ms), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if config.output_csv:
        write_csv(report.rows, config.output_csv)
    return report


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
