import hashlib
import json

import pytest

from poa_lab.cli import main as cli_main
from poa_lab.harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    read_json,
    run,
)
from poa_lab.mechanisms import AuctionInstance, tie_favor_bidder
from poa_lab.smoothness import optimal_alpha
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
    assert cli_main(["bound-table", "--csv", str(path)]) == 0
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

    # bad input is rejected where it is read: exit 2, never a traceback
    for config in (
            make_config(experiment="theorem6-frontier", params={"k": 1}),
            make_config(experiment="theorem6-frontier", params={"k": 2.7}),
            make_config(experiment="theorem6-frontier", params={"mu": 0}),
            make_config(experiment="verify-bne", instance="appendix-c",
                        tolerance="x"),
            make_config(experiment="verify-instance",
                        instance="theorem6-upa", params={"k": 5}),
            make_config(experiment="verify-instance", instance="theorem99"),
            make_config(experiment="verify-bne", instance="appendix-c",
                        params={"k": 5}),
            # parameter values: the constructors' limits, non-integral and
            # non-numeric values, and params that are not an object
            make_config(experiment="verify-instance", instance="theorem4",
                        params={"k": 2}),
            make_config(experiment="verify-instance", instance="theorem6-da",
                        params={"k": 1}),
            make_config(experiment="verify-instance", instance="theorem4",
                        params={"k": 2.7}),
            make_config(experiment="verify-instance", instance="theorem4",
                        params={"eps": "x"}),
            make_config(experiment="verify-instance", instance="proposition1",
                        params={"eps_values": [0.1]}),
            make_config(experiment="verify-bne", instance="appendix-c",
                        params={"tick": 0}),
            make_config(experiment="verify-instance", instance="theorem4",
                        params=[1, 2]),
            make_config(experiment="verify-bne", instance="appendix-c",
                        params=[1, 2]),
            make_config(experiment="theorem6-frontier", params=[1, 2])):
        bad.write_text(json.dumps(config))
        assert cli_main(["run", str(bad)]) == 2, config
    assert cli_main(["verify", "theorem6-upa", "--k", "5"]) == 2
    assert cli_main(["verify", "theorem4", "--k", "2"]) == 2
    assert cli_main(["verify", "theorem6-da", "--k", "1"]) == 2


def test_cli_config_that_is_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"schema_version": 1, "experiment": ')
    assert cli_main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert cli_main(["run", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def _run_config(tmp_path, **options):
    """The exit code of poa-lab run on a config file holding options."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_config(**options)))
    return cli_main(["run", str(path)])


def test_cli_find_pne_instance_file_that_is_a_directory_exits_2(tmp_path,
                                                                capsys):
    assert _run_config(tmp_path, experiment="find-pne",
                       instance_file=str(tmp_path),
                       grid={"tick": 0.25, "max_bid": 1.0}) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_verify_bne_game_file_that_is_a_directory_exits_2(tmp_path,
                                                              capsys):
    assert _run_config(tmp_path, experiment="verify-bne",
                       game_file=str(tmp_path)) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("instance", [5, ["theorem4"]],
                         ids=["a-number", "a-list"])
def test_cli_verify_instance_that_is_not_a_string_exits_2(tmp_path, capsys,
                                                          instance):
    assert _run_config(tmp_path, experiment="verify-instance",
                       instance=instance) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["output_json", "output_csv"])
@pytest.mark.parametrize("value", [1, True, ["report.json"]],
                         ids=["a-number", "a-bool", "a-list"])
def test_output_paths_must_be_strings(key, value):
    # refused before any work: an integer would be opened as a descriptor
    with pytest.raises(ConfigError, match=key):
        ExperimentConfig.from_dict(make_config(experiment="bound-table",
                                               **{key: value}))


def test_read_json_refuses_a_path_that_is_not_a_string():
    # an integer would be opened as a file descriptor: 0 is stdin
    with pytest.raises(ConfigError, match="string"):
        read_json(0, "find-pne instance_file")


def test_cli_output_into_a_missing_directory_exits_2(tmp_path, capsys):
    assert _run_config(tmp_path, experiment="bound-table",
                       output_json=str(tmp_path / "missing" / "r.json")) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bound_table_csv_into_a_directory_exits_2(tmp_path, capsys):
    assert cli_main(["bound-table", "--csv", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_output_json_that_is_a_directory_exits_2(tmp_path, capsys):
    assert _run_config(tmp_path, experiment="bound-table",
                       output_json=str(tmp_path)) == 2
    assert "config error" in capsys.readouterr().err


def _write_game(tmp_path, game, strat):
    """A verify-bne config file on a game file holding game and strat."""
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"game": game.to_json(),
                                "strategy": strat.to_json()}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(experiment="verify-bne",
                                               game_file=str(path))))
    return str(cfg_path)


def test_cli_verify_bne_beyond_the_deviation_limit_exits_2(
        tmp_path, capsys, monkeypatch):
    """A standard k = 4 grid of tick 1e-3 has C(1004, 4) bids: refused
    before any strategy space is built."""
    from poa_lab import equilibria
    from poa_lab.equilibria import BayesianGame, BidGrid, pure_strategy
    from poa_lab.mechanisms import StandardBid, tie_lexicographic

    def no_space(*args):
        raise AssertionError("a strategy space was built")

    v = valuation(0, 0.5, 0.75, 0.875, 1.0)
    grid = BidGrid(1e-3, 1.0)
    game = BayesianGame(4, ((v,), (v,)), ((1.0,), (1.0,)), grid,
                        tie_lexicographic(), "discriminatory")
    bid = StandardBid((0.25, 0.25, 0.0, 0.0))
    cfg_path = _write_game(tmp_path, game, pure_strategy(((bid,), (bid,))))
    monkeypatch.setattr(equilibria, "_grid_vectors", no_space)
    assert cli_main(["run", cfg_path]) == 2
    assert "deviation bids exceed the limit" in capsys.readouterr().err


def test_cli_verify_bne_fails_on_a_standard_deviation(tmp_path, capsys):
    """Bidder 0's best deviation is a standard bid no uniform one matches
    (test_equilibria.test_standard_deviation_breaks_a_uniform_certificate)."""
    from helpers import standard_deviation_game

    cfg_path = _write_game(tmp_path, *standard_deviation_game())
    assert cli_main(["run", cfg_path]) == 1
    assert "FAIL bne_regret value=0.0625" in capsys.readouterr().out


@pytest.mark.parametrize("change, write", [
    ({"grid": {"tick": 0, "max_bid": 1.0}}, json.dumps),
    ({"grid": None}, json.dumps),
    ({"mode": "nope"}, json.dumps),
    # the grid has 15 ** 2 = 225 profiles
    ({"cap": 10}, json.dumps),
    ({"cap": "ten"}, json.dumps),
    ({"starts": "five", "mode": "best_response_dynamics", "seed": 1},
     json.dumps),
    ({"max_rounds": [200]}, json.dumps),
    ({}, lambda data: json.dumps(data)[:-1]),
    ({}, lambda data: json.dumps({key: value for key, value in data.items()
                                  if key != "k"})),
    ({"cap": 225.5}, json.dumps),
    ({"starts": 2.5, "mode": "best_response_dynamics", "seed": 1},
     json.dumps),
    ({"max_rounds": True}, json.dumps),
    # the pricing rule decides whether the welfare check runs
    ({"check_efficiency": False}, json.dumps),
    # grid values are JSON numbers and a JSON boolean, read as they are
    ({"grid": {"tick": 0.25, "max_bid": 1.0, "no_overbidding": "false"}},
     json.dumps),
    ({"grid": {"tick": "0.25", "max_bid": 1.0}}, json.dumps),
    ({"grid": {"tick": 0.25, "max_bid": True}}, json.dumps),
    ({}, lambda data: json.dumps(dict(
        data, tie_break={"kind": "favor_bidder", "bidder": 7}))),
    ({}, lambda data: json.dumps(dict(
        data, valuations=[[0, True, 1.5], [0, 0.5, 0.75]]))),
    ({}, lambda data: json.dumps(dict(
        data, valuations=[[0, "1.0", 1.5], [0, 0.5, 0.75]]))),
], ids=["zero-tick", "no-grid", "unknown-mode", "cap-below-grid",
        "cap-not-an-integer", "starts-not-an-integer",
        "max-rounds-not-an-integer", "instance-not-json", "instance-without-k",
        "cap-not-integral", "starts-not-integral", "max-rounds-a-bool",
        "check-efficiency-key", "no-overbidding-a-string", "tick-a-string",
        "max-bid-a-bool", "favoured-bidder-7-of-2", "value-true",
        "value-a-string"])
def test_cli_find_pne_config_errors_exit_2(tmp_path, capsys, change, write):
    inst = AuctionInstance((valuation(0, 1.0, 1.5), valuation(0, 0.5, 0.75)),
                           2, "discriminatory", tie_favor_bidder(0))
    path = tmp_path / "instance.json"
    path.write_text(write(inst.to_json()))
    config = make_config(experiment="find-pne", instance_file=str(path),
                         grid={"tick": 0.25, "max_bid": 1.0})
    config.update(change)
    config = {key: value for key, value in config.items()
              if value is not None}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["run", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


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


def _set_k(data, k):
    data["k"] = k


def _set_quantity(data, quantity):
    data["profiles"][0]["profile"]["bids"][0]["quantity"] = quantity


def _set_order(data, order):
    data["tie_break"] = {"kind": "explicit", "order": order}


def _set_favoured(data, bidder):
    data["tie_break"] = {"kind": "favor_bidder", "bidder": bidder}


def _set_value(data, value):
    data["valuations"][0][1] = value


def _set_price(data, price):
    data["profiles"][0]["profile"]["bids"][0]["price"] = price


def _set_standard_bid(data, top):
    data["profiles"][0]["profile"] = {
        "interface": "standard", "k": 3,
        "bids": [[top, 0.0, 0.0], [0.5, 0.0, 0.0], [0.25, 0.0, 0.0]]}


@pytest.mark.parametrize("change, value", [
    (_set_k, 2.9), (_set_k, True), (_set_quantity, 1.5),
    (_set_order, [[0, 1.5]]), (_set_order, [[True, 0]]),
    (_set_favoured, 0.5), (_set_favoured, True), (_set_favoured, 7),
    # numbers are JSON numbers, read as they are: 1 is a value, a price
    # and a bid each of these could stand for
    (_set_value, True), (_set_value, "1.0"), (_set_price, True),
    (_set_price, "1.0"), (_set_standard_bid, True), (_set_standard_bid, "1"),
], ids=["k-2.9", "k-true", "quantity-1.5", "order-pair-0-1.5",
        "order-pair-bool", "favoured-0.5", "favoured-true", "favoured-7-of-3",
        "value-true", "value-a-string", "price-true", "price-a-string",
        "standard-bid-true", "standard-bid-a-string"])
def test_cli_instance_file_errors_exit_2(tmp_path, capsys, change, value):
    from poa_lab.instances import theorem4_instance

    named = theorem4_instance(3, 1e-6)
    data = named.instance.to_json()
    # a uniform-interface profile: its bids carry a quantity
    data["profiles"] = [{"role": "equilibrium",
                         "profile": named.profile("equilibrium").to_json()}]
    path = tmp_path / "instance.json"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(
        experiment="verify-instance", instance=str(path))))
    path.write_text(json.dumps(data))
    assert cli_main(["run", str(cfg_path)]) == 0
    change(data, value)
    path.write_text(json.dumps(data))
    assert cli_main(["run", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_game_file_with_non_integral_k_exits_2(tmp_path, capsys):
    from poa_lab.instances import appendix_c_bayesian

    game, strat = appendix_c_bayesian()
    blob = {"game": dict(game.to_json(), k=game.k + 0.5),
            "strategy": strat.to_json()}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(blob))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(
        experiment="verify-bne", game_file=str(path))))
    assert cli_main(["run", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_bne_from_game_file(tmp_path):
    from poa_lab.equilibria import BayesianGame, Strategy
    from poa_lab.instances import appendix_c_bayesian

    game, strat = appendix_c_bayesian()
    blob = {"game": game.to_json(), "strategy": strat.to_json()}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(blob))

    loaded_game = BayesianGame.from_json(json.loads(path.read_text())["game"])
    loaded_strat = Strategy.from_json(
        json.loads(path.read_text())["strategy"])
    assert loaded_game == game
    assert loaded_strat == strat

    report = run(make_config(experiment="verify-bne", game_file=str(path),
                             tolerance=1e-12))
    assert report.passed
    assert report.rows[0]["poa"] == pytest.approx(1.000466, abs=1e-5)


@pytest.mark.parametrize("kind", ["sweep-key-lemma", "certify-smoothness"])
@pytest.mark.parametrize("bad", [{"alphas": []}, {"alphas": [0.0]},
                                 {"alphas": [1.0, -0.5]}, {"count": 0},
                                 {"count": -3}, {"count": "many"},
                                 {"n_max": 1}, {"k_max": 1}, {"count": 3.9},
                                 {"count": True}, {"n_max": 2.5},
                                 {"alphas": [True]}, {"alphas": ["1.0"]}])
def test_rejects_vacuous_sweeps(kind, bad):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(make_config(experiment=kind, seed=1,
                                               **bad))


@pytest.mark.parametrize("kind, bad", [
    ("certify-smoothness", {"kind": "smoth"}),
    ("certify-smoothness", {"kind": ["smooth"]}),
    ("certify-smoothness", {"valuation_class": "general"}),
    ("certify-smoothness", {"valuation_class": "submodualr"}),
    ("sweep-key-lemma", {"valuation_class": "general"}),
    ("sweep-key-lemma", {"valuation_class": "submodualr"}),
])
def test_cli_unknown_kind_or_class_exits_2(tmp_path, capsys, kind, bad):
    """A kind or class outside smoothness's tables would run a check that
    no label names, or fail with a traceback: it is a config error."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_config(experiment=kind, seed=5, count=5,
                                           **bad)))
    assert cli_main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["sweep-key-lemma", "certify-smoothness"])
def test_cli_bool_alpha_exits_2(tmp_path, capsys, kind):
    """A JSON true is not an alpha of 1: the run would pass with its row's
    alpha reading True."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_config(experiment=kind, seed=5, count=5,
                                           alphas=[True])))
    assert cli_main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_integral_numbers_are_read_as_integers():
    report = run(make_config(experiment="sweep-key-lemma", seed=1, count=2.0,
                             n_max=2, k_max=2.0, alphas=[1.0]))
    assert report.passed
    assert report.checks[0]["detail"].startswith("2 cases")
    report = run(make_config(experiment="verify-instance",
                             instance="theorem4", params={"k": 6.0}))
    assert report.passed


def test_cli_vacuous_sweep_exit_code(tmp_path):
    for options in ({"count": 0}, {"alphas": []}, {"k_max": 1}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(make_config(
            experiment="sweep-key-lemma", seed=1, **options)))
        assert cli_main(["run", str(path)]) == 2


def test_report_without_checks_fails():
    report = ExperimentReport(config={})
    assert not report.passed
    report.add_check("ran", True)
    assert report.passed


# sha256 of each report body (meta and row runtimes dropped, keys sorted),
# recorded before the key-lemma margins were computed once per case.
PINNED_REPORTS = (
    ("sweep-key-lemma", {"valuation_class": "submodular"},
     "98b67e39f106964a692605a46b3c0884d05306592544512ab457ba6e0bd9f460"),
    ("sweep-key-lemma", {"valuation_class": "subadditive"},
     "ab03d39b86e4226bf4c56ebb01e741f9b9aec94141a08ebfb67a60395b360d9d"),
    ("certify-smoothness", {"kind": "smooth", "valuation_class": "submodular"},
     "92fb4186fd1192740fb6a9f7cca0ec08cdb3d22fbae59e631eeca11746edc584"),
    ("certify-smoothness", {"kind": "smooth", "valuation_class": "subadditive"},
     "84d4300b9575e8ba400657fc9dc4d3efca45c40fe3783160d3b5a2d864aee7ee"),
    ("certify-smoothness", {"kind": "weakly_smooth",
                            "valuation_class": "submodular"},
     "758d4d6e080eb2689672ef5b4ad599fdba77a6922dcb0b4aebe718b9b2966d8f"),
    ("certify-smoothness", {"kind": "weakly_smooth",
                            "valuation_class": "subadditive"},
     "b91aa0656ac889564435d76a401cbb9e61d027c12d2235be3cf0e69cd292f7f5"),
)


def _report_digest(config):
    """sha256 of a report body, meta and row runtimes dropped, keys sorted."""
    body = run(config).to_json()
    del body["meta"]
    for row in body["rows"]:
        del row["runtime_ms"]
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def test_certificate_reports_pinned():
    """The certificate configs of the deviation-certify benchmark, at 60
    cases each, reproduce their recorded reports bit for bit."""
    for offset, (kind, options, digest) in enumerate(PINNED_REPORTS):
        if kind == "sweep-key-lemma":
            alphas = [0.5, 0.87, 1.0, 2.0]
        elif options["kind"] == "smooth":
            alphas = [1.0]
        else:
            alphas = [optimal_alpha("uniform")]
        config = make_config(experiment=kind, seed=1001 + offset, count=60,
                             n_max=5, k_max=8, alphas=alphas, **options)
        assert _report_digest(config) == digest, (kind, options)


# recorded while each deviation scan still merged one candidate at a time
PINNED_SCAN_REPORTS = (
    ({"experiment": "verify-bne", "instance": "appendix-c"},
     "e769e26c8e23e37daedec4978aa227f25f994de49f07b37bfb1faac259a46116"),
    ({"experiment": "theorem6-frontier", "params": {"k": 20}},
     "029763ec3cea92f0448b185fafaa4f0c81897a5938b5bf6b514b96cae9f8f6de"),
    ({"experiment": "theorem6-frontier", "params": {"k": 50}},
     "b6a354ef6579f86cb25b73ac350dd0522b9485476e3e837095b8dba5662c3640"),
)


def test_deviation_scan_reports_pinned():
    """The Bayes-Nash and theorem 6 frontier reports, whose deviation scans
    score candidate arrays, reproduce their recorded reports bit for bit."""
    for options, digest in PINNED_SCAN_REPORTS:
        assert _report_digest(make_config(**options)) == digest, options


def _set_prior(blob, value):
    blob["game"]["priors"][0][0] = value


def _set_type_value(blob, value):
    blob["game"]["types"][0][0][1] = value


def _set_probability(blob, value):
    blob["strategy"][0][0][0][1] = value


def _set_support_bid(blob, value):
    blob["strategy"][0][0][0][0] = [value]


@pytest.mark.parametrize("change, value", [
    (_set_prior, True), (_set_prior, "1"), (_set_type_value, True),
    (_set_type_value, "1.0"), (_set_probability, True),
    (_set_probability, "1"), (_set_support_bid, True),
    (_set_support_bid, "0.333"),
], ids=["prior-true", "prior-a-string", "type-value-true",
        "type-value-a-string", "probability-true", "probability-a-string",
        "bid-true", "bid-a-string"])
def test_cli_game_file_numbers_exit_2(tmp_path, capsys, change, value):
    """A game file's priors, type values, probabilities and bids are JSON
    numbers: a bool or a string that float() would read is a config
    error."""
    from poa_lab.instances import appendix_c_bayesian

    game, strat = appendix_c_bayesian()
    blob = {"game": game.to_json(), "strategy": strat.to_json()}
    path = tmp_path / "game.json"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_config(
        experiment="verify-bne", game_file=str(path))))
    path.write_text(json.dumps(blob))
    assert cli_main(["run", str(cfg_path)]) == 0
    change(blob, value)
    path.write_text(json.dumps(blob))
    assert cli_main(["run", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_verify_bne_at_zero_welfare_reports_the_regret(tmp_path, capsys):
    """Both bidders bid (0, 0), so no unit is sold: the strategy's welfare
    is 0 and its PoA undefined, an empty poa as in verify-instance.  The
    regret is still reported: bidding (0.25, 0.25) wins both units, for
    0.75 - 0.5."""
    from poa_lab.equilibria import BayesianGame, BidGrid, pure_strategy
    from poa_lab.mechanisms import StandardBid, tie_lexicographic

    v = valuation(0, 0.5, 0.75)
    game = BayesianGame(2, ((v,), (v,)), ((1.0,), (1.0,)),
                        BidGrid(0.25, 1.0), tie_lexicographic(),
                        "discriminatory")
    zero = StandardBid((0.0, 0.0))
    cfg_path = _write_game(tmp_path, game, pure_strategy(((zero,), (zero,))))
    assert cli_main(["run", cfg_path]) == 1
    assert "FAIL bne_regret value=0.25" in capsys.readouterr().out
    report = run(json.loads((tmp_path / "cfg.json").read_text()))
    assert report.checks == [{"name": "bne_regret", "passed": False,
                              "value": 0.25, "detail": ""}]
    assert [row["poa"] for row in report.rows] == [""]
