import json

import pytest

from poa_lab.cli import main as cli_main
from poa_lab.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    bound_table_csv,
    run,
)
from poa_lab.mechanisms import AuctionInstance, tie_favor_bidder
from poa_lab.valuations import valuation


def make_config(**kwargs):
    base = {"schema_version": 1}
    base.update(kwargs)
    return base


def test_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_config(experiment="bound-table",
                                               extra_field=1))


def test_rejects_bad_schema_version():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"schema_version": 2,
                                    "experiment": "bound-table"})


def test_rejects_unknown_experiment():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_config(experiment="simulate"))


def test_randomized_sweep_requires_seed():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_config(experiment="sweep-key-lemma",
                                               count=5))


def test_rejects_parallelism_key():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_config(experiment="bound-table",
                                               parallelism=2))


def test_bound_table_experiment(tmp_path):
    out_csv = tmp_path / "bounds.csv"
    report = run(make_config(experiment="bound-table",
                             output_csv=str(out_csv)))
    assert report.passed
    assert len(report.rows) == 14
    header = out_csv.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_bound_table_csv_helper(tmp_path):
    path = tmp_path / "table.csv"
    bound_table_csv(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 15


def test_verify_instance_experiment():
    report = run(make_config(experiment="verify-instance",
                             instance="theorem4",
                             params={"k": 6, "eps": 1e-6}))
    assert report.passed
    names = {c["name"] for c in report.checks}
    assert "pure_nash_regret" in names and "poa_lower_bound" in names


def test_verify_instance_unknown_id():
    with pytest.raises(ConfigError):
        run(make_config(experiment="verify-instance", instance="nope"))


def test_sweep_key_lemma_experiment():
    report = run(make_config(experiment="sweep-key-lemma", seed=3, count=40,
                             alphas=[1.0], n_max=3, k_max=4))
    assert report.passed
    assert report.rows[0]["margin"] >= -1e-9


def test_certify_smoothness_experiment():
    report = run(make_config(experiment="certify-smoothness", seed=4,
                             count=30, kind="weakly_smooth",
                             valuation_class="submodular",
                             alphas=[0.8724532496000725]))
    assert report.passed
    row = report.rows[0]
    assert row["poa"] == pytest.approx(3.1462, abs=1e-3)


def test_find_pne_experiment(tmp_path):
    inst = AuctionInstance((valuation(0, 1.0), valuation(0, 0.5)), 1,
                           "discriminatory", tie_favor_bidder(0))
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(inst.to_json()))
    report = run(make_config(experiment="find-pne", instance_file=str(path),
                             grid={"tick": 0.25, "max_bid": 1.0}))
    assert report.passed
    assert any(c["name"] == "pne_welfare_within_grid_slack"
               for c in report.checks)
    assert len(report.rows) >= 1


def test_verify_bne_experiment():
    report = run(make_config(experiment="verify-bne", instance="appendix-c",
                             tolerance=1e-12))
    assert report.passed
    failing = run(make_config(experiment="verify-bne", instance="appendix-c",
                              tolerance=-1.0))
    assert not failing.passed


def test_theorem6_frontier_experiment():
    report = run(make_config(experiment="theorem6-frontier",
                             params={"k": 20, "mu": 1.0, "tick": 1e-3}))
    assert report.passed


def test_reports_deterministic_modulo_time(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        run(make_config(experiment="verify-instance", instance="theorem6-upa",
                        output_json=str(out)))
        paths.append(out)
    blobs = []
    for p in paths:
        data = json.loads(p.read_text())
        data["meta"]["timestamp"] = data["meta"]["runtime_ms"] = None
        for row in data["rows"]:
            row["runtime_ms"] = None
        blobs.append(json.dumps(data, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_cli_run_and_exit_codes(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(
        experiment="verify-instance", instance="theorem6-upa")))
    assert cli_main(["run", str(cfg_path)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(make_config(experiment="warp-drive")))
    assert cli_main(["run", str(bad)]) == 2
    assert cli_main(["run", str(tmp_path / "missing.json")]) == 2

    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(make_config(
        experiment="verify-bne", instance="appendix-c", tolerance=-1.0)))
    assert cli_main(["run", str(failing)]) == 1


def test_cli_verify_and_listing(capsys):
    assert cli_main(["verify", "theorem4", "--k", "6"]) == 0
    assert cli_main(["list-instances"]) == 0
    out = capsys.readouterr().out
    assert "theorem4" in out


def test_cli_bound_table_csv(tmp_path):
    path = tmp_path / "bounds.csv"
    assert cli_main(["bound-table", "--csv", str(path)]) == 0
    assert path.exists()


def test_verify_instance_file_emits_outcome_records(tmp_path):
    from poa_lab.instances import theorem4_instance

    named = theorem4_instance(5, 1e-6)
    data = named.instance.to_json()
    data["profiles"] = [{"role": "equilibrium",
                         "profile": named.profile("equilibrium").to_json()}]
    path = tmp_path / "theorem4.json"
    path.write_text(json.dumps(data))
    out_json = tmp_path / "report.json"
    report = run(make_config(experiment="verify-instance",
                             instance=str(path), output_json=str(out_json)))
    assert report.passed
    record = report.records[0]
    assert record["allocation"] == [1, 1, 1, 1, 1]
    assert record["uniform_price"] == 0.0
    assert record["payments"] == [0.0] * 5
    assert record["welfare"] == pytest.approx(1 + 1 / 5 + 3e-6)
    dumped = json.loads(out_json.read_text())
    assert dumped["records"] == report.records


def test_verify_bne_from_game_file(tmp_path):
    from poa_lab.equilibria import BayesianGame, Strategy
    from poa_lab.instances import appendix_c_bayesian

    game, strat = appendix_c_bayesian()
    blob = {"game": game.to_json(), "strategy": strat.to_json()}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(blob))

    loaded_game = BayesianGame.from_json(json.loads(path.read_text())["game"])
    loaded_strat = Strategy.from_json(
        json.loads(path.read_text())["strategy"], loaded_game.k)
    assert loaded_game == game
    assert loaded_strat == strat

    report = run(make_config(experiment="verify-bne", game_file=str(path),
                             tolerance=1e-12))
    assert report.passed
    assert report.rows[0]["poa"] == pytest.approx(1.000466, abs=1e-5)
