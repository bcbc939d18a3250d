"""The benchmark's workloads: seeded certification sweeps and their checks.

Each workload derives every sweep seed from the one benchmark seed, hands
the program nothing but those seeds and the case shapes of the acceptance
suite, and checks every output the program returns.  One call of
``sweep()`` is one timed unit of work; ``check()`` runs outside the timing.

The reasons for each workload, and which layers each should move, are in
this directory's README.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from bench_trace import patch

E_OVER_E_MINUS_1 = math.e / (math.e - 1)
UNIFORM_PRICE_POA = 3.1462
KEY_LEMMA_ALPHAS = (0.5, 0.87, 1.0, 2.0)


class EquilibriumTap:
    """Records, per ``find_pure_nash`` call, a digest of the equilibrium set
    and the number of profiles evaluated.

    ``pne_efficiency_sweep`` returns only counts, so the set of equilibria
    of each case is read here, at the call boundary.  It costs one wrapper
    call per case (one case is tens of thousands of auctions).
    """

    def __init__(self):
        self.calls = []
        self._restore = None

    def __enter__(self) -> "EquilibriumTap":
        def make(fn):
            def tapped(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls.append((equilibria_digest(result.equilibria),
                                   len(result.equilibria), result.evaluated))
                return result
            return tapped
        self._restore = patch("equilibria", "find_pure_nash", make)
        return self

    def __exit__(self, exc_type, exc, tb):
        self._restore()

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


def equilibria_digest(profiles) -> str:
    """Order-free digest of a set of profiles, by their exact bid vectors."""
    keys = sorted(repr(tuple(p.vector(i) for i in range(p.n)))
                  for p in profiles)
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def _run_digest(calls) -> str:
    return hashlib.sha256(
        "\n".join(digest for digest, _, _ in calls).encode()).hexdigest()


class GridPNE:
    """Exhaustive pay-as-bid grid search, the shape of acceptance criterion 7:
    n=2, k alternating 2 and 3, general valuations, tick 0.125, max bid 1,
    lexicographic ties."""

    name = "grid-pne"

    def __init__(self, lab, seed: int, out_dir: str, count: int = 10):
        self.lab = lab
        self.seed = seed
        self.count = count
        self.cases = count
        self.seeds = {"pne_efficiency_sweep": seed}
        self.digest = None

    def sweep(self):
        return self.lab.sweeps.pne_efficiency_sweep(
            self.count, seed=self.seed, tick=0.125, max_bid=1.0)

    def check(self, result, taps) -> list:
        digest = _run_digest(taps)
        if self.digest is None:
            self.digest = digest
        return [
            ("pne_sweep_passed", result.passed),
            ("pne_instances_as_requested", result.instances == self.count),
            ("pne_equilibria_found", result.equilibria > 0),
            ("pne_one_search_per_case", len(taps) == self.count),
            ("pne_equilibria_count_matches_sets",
             result.equilibria == sum(n for _, n, _ in taps)),
            ("pne_equilibria_digest_stable", digest == self.digest),
        ]


class DeviationCertify:
    """Acceptance criteria 4 and 5 driven as ``poa-lab run`` configs: two
    key-lemma sweeps and four smoothness certificates (submodular and
    subadditive, both pricings, both interfaces, n <= 5, k <= 8), each
    writing a JSON and a CSV report."""

    name = "deviation-certify"

    def __init__(self, lab, seed: int, out_dir: str, count: int = 500):
        self.lab = lab
        self.count = count
        report_dir = os.path.join(out_dir, "reports")
        os.makedirs(report_dir, exist_ok=True)
        weak_alpha = lab.smoothness.optimal_alpha("uniform")
        specs = [
            ("sweep-key-lemma", {"valuation_class": "submodular",
                                 "alphas": list(KEY_LEMMA_ALPHAS)}),
            ("sweep-key-lemma", {"valuation_class": "subadditive",
                                 "alphas": list(KEY_LEMMA_ALPHAS)}),
            ("certify-smoothness", {"kind": "smooth", "alphas": [1.0],
                                    "valuation_class": "submodular"}),
            ("certify-smoothness", {"kind": "smooth", "alphas": [1.0],
                                    "valuation_class": "subadditive"}),
            ("certify-smoothness", {"kind": "weakly_smooth",
                                    "alphas": [weak_alpha],
                                    "valuation_class": "submodular"}),
            ("certify-smoothness", {"kind": "weakly_smooth",
                                    "alphas": [weak_alpha],
                                    "valuation_class": "subadditive"}),
        ]
        self.configs = []
        self.seeds = {}
        for offset, (kind, options) in enumerate(specs):
            name = f"{offset}-{kind}"
            self.seeds[name] = seed + offset
            stem = os.path.join(report_dir, name)
            self.configs.append({
                "schema_version": 1, "experiment": kind,
                "seed": seed + offset, "count": count, "n_max": 5,
                "k_max": 8, **options,
                "output_json": stem + ".json", "output_csv": stem + ".csv"})
        self.cases = count * len(self.configs)

    def sweep(self):
        return [self.lab.harness.run(config) for config in self.configs]

    def check(self, reports, taps) -> list:
        checks = []
        columns = list(self.lab.harness.CSV_COLUMNS)
        for config, report in zip(self.configs, reports):
            tag = f"{config['experiment']}_{config['seed']}"
            with open(config["output_json"]) as fh:
                written = json.load(fh)
            with open(config["output_csv"], newline="") as fh:
                rows = list(csv.reader(fh))
            checks.append((f"{tag}_passed", report.passed))
            checks.append((f"{tag}_json_passed", written["passed"] is True))
            checks.append((f"{tag}_csv_rows",
                           rows[:1] == [columns] and len(rows) == 2))
            if config["experiment"] == "sweep-key-lemma":
                detail = written["checks"][0]["detail"]
                checks.append((f"{tag}_cases_as_requested",
                               detail.startswith(f"{self.count} cases,")))
                continue
            cert = written["records"][0]
            checks.append((f"{tag}_verified", cert["verified"] is True))
            checks.append((f"{tag}_cases_as_requested",
                           cert["instances"] == self.count))
            if config["valuation_class"] == "submodular":
                target, tol = ((E_OVER_E_MINUS_1, 1e-4)
                               if config["kind"] == "smooth"
                               else (UNIFORM_PRICE_POA, 1e-3))
                checks.append((f"{tag}_implied_poa",
                               abs(cert["implied_poa"] - target) <= tol))
        return checks


class TieConstructions:
    """Acceptance criterion 8 at ten times its case counts: Proposition 1's
    tie-break equilibria and the Lemma 1 standard-to-uniform conversion."""

    name = "tie-constructions"

    def __init__(self, lab, seed: int, out_dir: str, proposition1: int = 250,
                 conversion: int = 500):
        self.lab = lab
        self.counts = (proposition1, conversion)
        self.seeds = {"proposition1_sweep": seed,
                      "lemma1_conversion_sweep": seed + 1}
        self.cases = proposition1 + conversion

    def sweep(self):
        sweeps = self.lab.sweeps
        out = []
        for fn, count, seed in (
                (sweeps.proposition1_sweep, self.counts[0],
                 self.seeds["proposition1_sweep"]),
                (sweeps.lemma1_conversion_sweep, self.counts[1],
                 self.seeds["lemma1_conversion_sweep"])):
            try:
                out.append(fn(count, seed=seed))
            except AssertionError as exc:
                out.append(exc)
        return out

    def check(self, returned, taps) -> list:
        return [("proposition1_cases_as_requested",
                 returned[0] == self.counts[0]),
                ("lemma1_conversion_cases_as_requested",
                 returned[1] == self.counts[1])]


WORKLOADS = {w.name: w for w in (GridPNE, DeviationCertify, TieConstructions)}
