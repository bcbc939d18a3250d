"""Compare two checkouts on perfbench workloads and write a BENCH_*.json.

    python3 scripts/bench_compare.py --before HEAD~1 --after HEAD \\
        --workload grid-pne=1007 --out BENCH_grid-pne.json

Run from the repository root.  --before and --after name git revisions,
each exported with ``git archive`` into a temporary directory.  In each of
PAIRS pairs, every workload runs ``perfbench/run.py`` once on each
checkout, for its own default run length, back to back, and then the
LAYERS script runs in a fresh process on each; the side that goes first
alternates from one of these runs to the next, so a drift in the host's
speed lands on both sides.  The JSON records both git shas and the git tree of each
``src/`` (which a later amend of the commit keeps), the core count, the
Python and numpy versions, every run's end-to-end metrics and per-layer
costs, and their medians and quartiles per side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10

# Per-call costs of the exhaustive search's layers, of the ranking layers,
# of random_valuation and, per case, of five 500-case certification
# sweeps, in microseconds (keys ending in _us): the best of 5 passes over
# `calls` calls.  Then the memory two 1000-case certification sweeps hold,
# in KiB (keys ending in _kib): their tracemalloc peak.  All in a fresh
# process of one checkout.  reference_loop_us times a fixed pure-Python
# loop that uses no package code, so it reads the host's speed: dividing
# a time by it lets BENCH files of different sessions be compared.
LAYERS = r'''
import gc, json, math, random, time, tracemalloc
import numpy as np
from poa_lab import equilibria, mechanisms, smoothness, sweeps
from poa_lab.mechanisms import (AuctionInstance, BidProfile, StandardBid,
                                tie_explicit, tie_lexicographic)
from poa_lab.valuations import random_valuation

def cost(fn, calls):
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, (time.perf_counter() - t0) / calls)
    return best * 1e6

tie = tie_lexicographic()
out = {"reference_loop_us": cost(
    lambda: sum(i * i for i in range(10000)), 20)}
for k in (2, 3):
    vals = tuple(random_valuation("general", k, 0.75 / k, seed=s)
                 for s in (1, 2))
    inst = AuctionInstance(vals, k, "discriminatory", tie)
    grid = equilibria.BidGrid(0.125, 1.0)
    out[f"find_pure_nash_k{k}_us"] = cost(
        lambda: equilibria.find_pure_nash(inst, grid), 20)
# the same k = 3 game under uniform pricing, whose cached candidates keep
# 9,141 of the 27,225 profiles, the least pruning of these searches
uniform_inst = AuctionInstance(vals, 3, "uniform", tie)
out["find_pure_nash_uniform_k3_us"] = cost(
    lambda: equilibria.find_pure_nash(uniform_inst, grid), 5)
# 969 ** 2 profiles, above _BLOCK_CELLS: the search that scores box by box
# without cached candidates, which no perfbench workload runs
fine = equilibria.BidGrid(0.0625, 1.0)
out["find_pure_nash_sliced_k3_us"] = cost(
    lambda: equilibria.find_pure_nash(inst, fine), 5)
# a search that builds everything it caches: every cache of the modules
# it runs in is cleared first
caches = [fn for module in (equilibria, mechanisms)
          for fn in vars(module).values() if hasattr(fn, "cache_clear")]

def cold():
    for fn in caches:
        fn.cache_clear()
    equilibria.find_pure_nash(inst, grid)

out["find_pure_nash_k3_cold_us"] = cost(cold, 20)
# under no-overbidding each bidder's space is cut at its valuation and the
# search builds all its tables afresh on every call: 73 x 104 profiles
nob_inst = AuctionInstance(tuple(random_valuation("submodular", 3, 1.0, seed=s)
                                 for s in (1, 2)), 3, "discriminatory", tie)
nob_grid = equilibria.BidGrid(0.125, 1.0, no_overbidding=True)
out["find_pure_nash_nob_k3_us"] = cost(
    lambda: equilibria.find_pure_nash(nob_inst, nob_grid), 20)
spaces = equilibria._grid_spaces(grid, 3, [None, None])
out["search_candidates_k3_us"] = cost(
    lambda: mechanisms.SearchCandidates(spaces, tie), 50)
cands = mechanisms.SearchCandidates(spaces, tie)
picks = (np.arange(len(spaces[1])),)
values = np.array(vals[0].values)


def block():
    alloc = mechanisms.block_allocation(cands, 0, "discriminatory", picks)
    return mechanisms.block_utilities(cands, 0, values, "discriminatory",
                                      *alloc)


# a whole block, then its two halves: the game's and the valuation's
out["block_k3_us"] = cost(block, 50)
alloc = mechanisms.block_allocation(cands, 0, "discriminatory", picks)
out["block_allocation_k3_us"] = cost(
    lambda: mechanisms.block_allocation(cands, 0, "discriminatory", picks),
    50)
out["block_utilities_k3_us"] = cost(
    lambda: mechanisms.block_utilities(cands, 0, values,
                                       "discriminatory", *alloc), 50)
rng = random.Random(5)
profile = BidProfile(tuple(StandardBid(tuple(sorted(
    (rng.random() for _ in range(6)), reverse=True))) for _ in range(5)),
    "standard", 6)
vectors = np.array([sorted((rng.random() for _ in range(6)), reverse=True)
                    for _ in range(12)])
v6 = np.array(random_valuation("submodular", 6, 1.0, seed=3).values)
out["deviation_outcomes_n5_k6_c12_us"] = cost(
    lambda: mechanisms.deviation_outcomes([profile], 0, vectors, v6, tie,
                                          "uniform"), 200)
# the ranking layers: n=5, k=6, uniform pricing, tick 1e-3, 200 seeded
# profiles whose bids sit on eight grid levels, so ties are common; one
# call is one pass over the profiles, divided by their number
rng = random.Random(7)
levels = [0.125 * (j + 1) for j in range(8)]
profiles = [BidProfile(tuple(StandardBid(tuple(sorted(
    (rng.choice(levels) for _ in range(6)), reverse=True)))
    for _ in range(5)), "standard", 6) for _ in range(200)]
vals5 = tuple(random_valuation("submodular", 6, 1.0, seed=s)
              for s in range(5))
fine_grid = equilibria.BidGrid(1e-3, 2.0)
pairs = [(i, s) for i in range(5) for s in range(6)]
rng.shuffle(pairs)
out["beta_minus_i_n5_k6_us"] = cost(
    lambda: [mechanisms.beta_minus_i(p, 0) for p in profiles], 1) / 200
for name, rule in (("lex", tie_lexicographic()),
                   ("explicit", tie_explicit(pairs[:15]))):
    inst5 = AuctionInstance(vals5, 6, "uniform", rule)
    out[f"run_auction_{name}_n5_k6_us"] = cost(
        lambda: [mechanisms.run_auction(p, rule, "uniform")
                 for p in profiles], 1) / 200
    out[f"best_response_{name}_n5_k6_us"] = cost(
        lambda: [equilibria.best_response(inst5, p, 0, fine_grid)
                 for p in profiles], 1) / 200
    out[f"is_pure_nash_{name}_n5_k6_us"] = cost(
        lambda: [equilibria.is_pure_nash(p, inst5, fine_grid)
                 for p in profiles], 1) / 200
# the certification sweeps per case, at the shapes and seeds of acceptance
# criteria 4 and 5: one pass is a 500-case sweep
out["smoothness_sweep_500_case_us"] = cost(
    lambda: sweeps.smoothness_sweep(500, 1.0, "smooth", "submodular", 1003),
    1) / 500
out["key_lemma_sweep_500_case_us"] = cost(
    lambda: sweeps.key_lemma_sweep(500, (0.5, 0.87, 1.0, 2.0), "submodular",
                                   1001), 1) / 500
# and their subadditive sweeps, whose cases draw curves by rejection
weak = smoothness.optimal_alpha("uniform")
out["key_lemma_sweep_subadditive_500_case_us"] = cost(
    lambda: sweeps.key_lemma_sweep(500, (0.5, 0.87, 1.0, 2.0), "subadditive",
                                   1002), 1) / 500
out["smoothness_sweep_subadditive_500_case_us"] = cost(
    lambda: sweeps.smoothness_sweep(500, 1.0, "smooth", "subadditive", 1004),
    1) / 500
out["weak_smoothness_sweep_subadditive_500_case_us"] = cost(
    lambda: sweeps.smoothness_sweep(500, weak, "weakly_smooth",
                                    "subadditive", 1006), 1) / 500
# one curve per call, as the other sweeps and the searches draw them
for kind, k in (("subadditive", 8), ("submodular", 8), ("general", 3)):
    out[f"random_valuation_{kind}_k{k}_us"] = cost(
        lambda: [random_valuation(kind, k, 1.0, seed=s)
                 for s in range(200)], 1) / 200
# sweep memory, at the shapes and seeds of acceptance criteria 4 and 5.
# CPython keeps up to 2000 freed tuples of each length below 20 for reuse,
# and tracemalloc counts them as allocated until a full collection clears
# them; they are filled and the collector paused first, so a peak is what
# the sweep holds, the same on every run.
gc.disable()
for name, sweep in (
        ("smoothness_sweep_1000_peak_kib", lambda count: sweeps.smoothness_sweep(
            count, 1.0, "smooth", "submodular", 1003)),
        ("key_lemma_sweep_1000_peak_kib", lambda count: sweeps.key_lemma_sweep(
            count, (0.5, 0.87, 1.0, 2.0), "submodular", 1001))):
    sweep(100)
    held = [tuple(range(n)) for n in range(1, 20) for _ in range(2000)]
    del held
    tracemalloc.start()
    sweep(1000)
    out[name] = tracemalloc.get_traced_memory()[1] / 1024
    tracemalloc.stop()
gc.enable()
print(json.dumps(out))
'''


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def checkout(rev: str, scratch: str) -> tuple[Path, dict]:
    """The revision exported into a directory, and its git ids."""
    sha = git("rev-parse", rev)
    dest = Path(tempfile.mkdtemp(prefix=f"bench-{sha[:8]}-", dir=scratch))
    archive = dest / "tree.tar"
    with open(archive, "wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", sha], stdout=fh,
                       check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest, {"rev": rev, "git_sha": sha,
                  "src_tree": git("rev-parse", f"{sha}:src")}


def run_workload(tree: Path, workload: str, seed: int):
    """perfbench/run.py's last two lines: its detail and its result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        raise RuntimeError(f"{tree}: {workload} failed\n{proc.stderr}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def layers(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-c", LAYERS], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def quartiles(xs):
    return [float(q) for q in np.percentile(xs, [25, 50, 75])]


def summary(runs: dict) -> dict:
    """Medians and quartiles of each side's runs, dicts of one number per
    metric; a side's metrics are those of its first run."""
    return {
        "medians": {side: {name: statistics.median(r[name] for r in rs)
                           for name in rs[0]}
                    for side, rs in runs.items()},
        "quartiles": {side: {name: quartiles([r[name] for r in rs])
                             for name in rs[0]}
                      for side, rs in runs.items()},
    }


def schedule(specs):
    """(pair, spec, side) in run order: per pair, each workload spec and
    then the per-layer script (spec None) runs on both sides back to back.
    The side that goes first alternates from one such run to the next and,
    for each spec, from one pair to the next."""
    for pair in range(PAIRS):
        for slot, spec in enumerate(list(specs) + [None], pair):
            order = ("before", "after") if slot % 2 == 0 else ("after",
                                                                "before")
            for side in order:
                yield pair, spec, side


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True, help="git revision")
    parser.add_argument("--after", required=True, help="git revision")
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME=SEED; repeat for several workloads")
    parser.add_argument("--scratch", default=tempfile.gettempdir(),
                        help="where revisions are exported, then removed")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=args.scratch) as scratch:
        report = compare(args, scratch)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


def compare(args, scratch: str) -> dict:
    trees = {side: checkout(rev, scratch)
             for side, rev in (("before", args.before),
                               ("after", args.after))}
    report = {
        "sides": {side: meta for side, (_, meta) in trees.items()},
        "machine": {"cores": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "platform": platform.platform()},
        "method": (f"{PAIRS} pairs; in each, both sides run "
                   "perfbench/run.py --trace 0 at its default run length "
                   "back to back per workload, then the per-layer script, "
                   "the side run first alternating from one such run to "
                   "the next; medians over pairs"),
        "workloads": {},
    }
    # a workload may run at several seeds: entries are keyed NAME=SEED
    specs = [(spec, *spec.split("=")) for spec in args.workload]
    runs = {spec: {"before": [], "after": []} for spec, _, _ in specs}
    layer_runs = {"before": [], "after": []}
    for pair, spec, side in schedule(args.workload):
        tree = trees[side][0]
        if spec is None:
            layer_runs[side].append(layers(tree))
            continue
        workload, seed = spec.split("=")
        detail, result = run_workload(tree, workload, int(seed))
        runs[spec][side].append({
            "metrics": {name: m["value"]
                        for name, m in result["metrics"].items()},
            "failed": result["failed"],
            "equilibria_digest": detail.get("equilibria_digest")})
        print(spec, pair, side, runs[spec][side][-1]["metrics"],
              file=sys.stderr)
    for spec, workload, seed in specs:
        entry = {"workload": workload, "seed": int(seed), "runs": runs[spec]}
        entry.update(summary({side: [r["metrics"] for r in side_runs]
                              for side, side_runs in runs[spec].items()}))
        entry["after_over_before"] = {
            name: entry["medians"]["after"][name]
            / entry["medians"]["before"][name]
            for name in entry["medians"]["before"]}
        report["workloads"][spec] = entry
    report["per_layer_us"] = {"runs": layer_runs, **summary(layer_runs)}
    return report


if __name__ == "__main__":
    sys.exit(main())
