import json

import numpy as np
import pytest
import yaml

from factorcavity import bethe, cli, exact, io, models
from factorcavity.graphmodel import DegreeSpec, FactorGraph


def run_cli(argv):
    return cli.main(argv)


def test_check_ldgm_passes(capsys):
    rc = run_cli(["check", "--model", "ldgm", "--eta", "0.25", "--dspec", "2",
                  "--kspec", "2:0.5,3:0.5", "--pos-trials", "100"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "SYM: pass xi=1.0" in out
    assert "DEG: pass" in out
    assert "POS: pass (certified, 0 evaluations)" in out


def test_check_fails_on_broken_symmetry(capsys):
    # a family whose table is positive but slot-biased: SYM must fail
    table = [1.2, 1.2, 0.3, 0.3]
    # go through the assumptions checker via a hand-built family instead
    from factorcavity import assumptions
    from factorcavity.graphmodel import WeightFamily

    fam = WeightFamily(q=2, tables={2: (np.asarray(table).reshape(2, 2),)},
                       masses={2: [1.0]})
    rep = assumptions.check_sym(fam)
    assert not rep.passed

    # the CLI surface: an assortative model fails POS and exits 1
    rc = run_cli(["check", "--model", "sbm", "--q", "2", "--beta", "1.0",
                  "--d", "3", "--assortative", "--pos-trials", "10000"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "POS: FAIL" in out
    assert "witness" in out


def test_check_negative_table_is_runtime_error(tmp_path, capsys):
    bad = {"model": {"name": "ldgm", "eta": -0.5, "dspec": 2, "kspec": 2}}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(bad))
    rc = run_cli(["check", "--config", str(path)])
    assert rc == 2


def test_model_config_needs_model_section(tmp_path, capsys):
    path = tmp_path / "bare.yaml"
    path.write_text(yaml.safe_dump({"name": "sbm", "q": 2, "beta": 1.0, "d": 3}))
    assert run_cli(["check", "--config", str(path)]) == 2
    assert "no 'model' section" in capsys.readouterr().err
    path.write_text(yaml.safe_dump({"model": {"name": "sbm", "q": 2, "beta": 1.0, "d": 3}}))
    assert run_cli(["check", "--config", str(path), "--pos-trials", "10"]) == 0


def test_non_integral_degree_is_runtime_error(capsys):
    rc = run_cli(["bethe", "--model", "sbm", "--q", "2", "--beta", "1", "--d", "3.5",
                  "--pop-size", "150", "--sweeps", "2", "--samples", "100"])
    assert rc == 2
    assert "integers" in capsys.readouterr().err


def test_sample_rejects_arity_zero_factors(capsys):
    rc = run_cli(["sample", "--model", "ldgm", "--eta", "0.2", "--dspec", "2",
                  "--kspec", "0:0.5,2:0.5", "--n", "10"])
    assert rc == 2
    assert "arity at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--model", "sbm", "--q", "2", "--beta", "1", "--d", "3", "--workers", "2"],
    ["sample", "--model", "sbm", "--q", "2", "--beta", "1", "--d", "3", "--n", "6",
     "--kind", "nishimori", "--approximate"],
    ["selftest", "--workers", "2"],
])
def test_unread_flags_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_removed_model_name_is_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["bethe", "--model", "potts", "--q", "2", "--beta", "1", "--d", "3"])
    assert err.value.code == 2
    assert "invalid choice: 'potts'" in capsys.readouterr().err


def test_sample_round_trips_through_exact(tmp_path, capsys):
    rc = run_cli(["sample", "--model", "ldgm", "--eta", "0.2", "--dspec", "2",
                  "--kspec", "2", "--n", "6", "--seed", "3",
                  "--out", str(tmp_path / "g")])
    assert rc == 0
    text = (tmp_path / "g.graph.txt").read_text()
    model = models.ldgm(0.2, DegreeSpec.constant(2), DegreeSpec.constant(2))
    g = FactorGraph.from_text(text, model.family)
    assert g.n == 6 and g.m == 6

    rc = run_cli(["exact", "--model", "ldgm", "--eta", "0.2", "--dspec", "2",
                  "--kspec", "2", "--n", "6", "--seed", "3",
                  "--graph", str(tmp_path / "g.graph.txt"),
                  "--out", str(tmp_path / "res")])
    assert rc == 0
    payload = json.loads((tmp_path / "res.json").read_text())
    assert payload["log_z"] == pytest.approx(exact.partition_function(g).log_z)


@pytest.mark.parametrize("table_id", [-1, 2])
def test_graph_with_unknown_table_id_is_runtime_error(tmp_path, capsys, table_id):
    path = tmp_path / "bad.graph.txt"
    path.write_text(f"2 1 2\n2 {table_id} 0 1\n")
    rc = run_cli(["exact", "--model", "ldgm", "--eta", "0.2", "--dspec", "1", "--kspec", "2",
                  "--graph", str(path)])
    assert rc == 2
    assert "table id out of range" in capsys.readouterr().err


def test_sample_planted_records_ground_truth(tmp_path):
    rc = run_cli(["sample", "--model", "sbm", "--q", "2", "--beta", "0.7",
                  "--d", "3", "--n", "4", "--kind", "planted",
                  "--theta", "1", "--seed", "5", "--out", str(tmp_path / "p")])
    assert rc == 0
    manifest = json.loads((tmp_path / "p.manifest.json").read_text())
    assert len(manifest["sigma"]) == 4


def test_graph_commands_hash_their_graph_inputs(tmp_path):
    ldgm = ["--model", "ldgm", "--eta", "0.2", "--dspec", "2", "--kspec", "2"]
    sbm = ["--model", "sbm", "--q", "2", "--beta", "0.7", "--d", "3"]
    runs = {
        "n8": ["exact", *ldgm, "--n", "8"],
        "n10": ["exact", *ldgm, "--n", "10"],
        "n10-again": ["exact", *ldgm, "--n", "10"],
        "null": ["bp", *sbm, "--n", "6", "--kind", "null"],
        "planted": ["bp", *sbm, "--n", "6", "--kind", "planted"],
        "theta0": ["sample", *sbm, "--n", "6", "--kind", "planted"],
        "theta2": ["sample", *sbm, "--n", "6", "--kind", "planted", "--theta", "2"],
    }
    digests = {}

    def run(name, argv):
        assert run_cli(argv + ["--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        digests[name] = manifest["inputs_digest"]

    for name, argv in runs.items():
        run(name, argv)
    run("graph-unpinned", ["exact", *sbm, "--graph", str(tmp_path / "theta0.graph.txt")])
    run("graph-pinned", ["exact", *sbm, "--graph", str(tmp_path / "theta2.graph.txt")])
    assert digests["n8"] != digests["n10"]
    assert digests["n10"] == digests["n10-again"]
    assert digests["null"] != digests["planted"]
    assert digests["theta0"] != digests["theta2"]
    assert digests["graph-unpinned"] != digests["graph-pinned"]


_LDGM_FLAGS = ["--model", "ldgm", "--eta", "0.3", "--dspec", "2", "--kspec", "2"]


@pytest.mark.parametrize("base, changes", [
    (["bethe", *_LDGM_FLAGS, "--pop-size", "150", "--sweeps", "2", "--samples", "100"],
     [["--pop-size", "160"], ["--sweeps", "3"], ["--samples", "200"]]),
    (["bp", *_LDGM_FLAGS, "--n", "6"],
     [["--max-iters", "50"], ["--damping", "0.25"], ["--tol", "1e-6"]]),
    (["check", *_LDGM_FLAGS, "--pos-trials", "10"], [["--pos-trials", "20"]]),
    (["exact", *_LDGM_FLAGS, "--n", "6"], [["--two-point"]]),
], ids=["bethe", "bp", "check", "exact"])
def test_output_flags_enter_the_digest(tmp_path, base, changes):
    def digest(name, argv):
        assert run_cli(argv + ["--out", str(tmp_path / name)]) == 0
        return json.loads((tmp_path / f"{name}.manifest.json").read_text())["inputs_digest"]

    first = digest("base", base)
    assert digest("base-again", base) == first
    for i, change in enumerate(changes):
        assert digest(f"change{i}", base + change) != first, change


def test_bp_command(tmp_path):
    rc = run_cli(["bp", "--model", "sbm", "--q", "2", "--beta", "0.5", "--d", "3",
                  "--n", "6", "--seed", "1", "--damping", "0.0",
                  "--out", str(tmp_path / "bp")])
    assert rc == 0
    payload = json.loads((tmp_path / "bp.json").read_text())
    assert "bethe" in payload and "marginal_error" in payload


def test_bethe_command(tmp_path):
    rc = run_cli(["bethe", "--model", "ldgm", "--eta", "0.5", "--dspec", "2",
                  "--kspec", "2", "--pop-size", "150",
                  "--sweeps", "5", "--samples", "2000",
                  "--out", str(tmp_path / "b")])
    assert rc == 0
    payload = json.loads((tmp_path / "b.json").read_text())
    assert payload["heuristic_sup"] is True
    assert payload["sup"] == pytest.approx(float(np.log(2)), abs=1e-12)


@pytest.mark.parametrize("budget, message", [
    (["--samples", "0"], "at least 2 samples"),
    (["--samples", "1"], "at least 2 samples"),
    (["--sweeps", "-3"], "negative"),
])
def test_bethe_command_rejects_unusable_budgets(tmp_path, capsys, budget, message):
    rc = run_cli(["bethe", "--model", "ldgm", "--eta", "0.3", "--dspec", "2", "--kspec", "2",
                  "--pop-size", "200", "--sweeps", "2", *budget,
                  "--out", str(tmp_path / "b")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def _mi_scan_config(tmp_path):
    cfg = {
        "model": {"name": "ldgm", "dspec": 2, "kspec": 2},
        "grid": {"param": "eta", "values": [0.35, 0.5]},
        "seed": 11,
        "budget": {"pop_size": 150, "sweeps": 5,
                   "samples": 2000, "pos_trials": 30},
    }
    path = tmp_path / "scan.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


def test_mi_scan_deterministic_and_sane(tmp_path):
    path = _mi_scan_config(tmp_path)
    rc = run_cli(["mi-scan", "--config", str(path), "--out", str(tmp_path / "a")])
    assert rc == 0
    body_a = (tmp_path / "a.csv").read_text()
    rc = run_cli(["mi-scan", "--config", str(path), "--out", str(tmp_path / "b")])
    assert rc == 0
    body_b = (tmp_path / "b.csv").read_text()
    assert body_a == body_b
    assert body_a.splitlines()[0] == io.CSV_SCHEMA

    rows = body_a.splitlines()[2:]
    last = rows[-1].split(",")
    mi, stderr = float(last[1]), float(last[2])
    assert abs(mi) <= max(3 * stderr, 1e-10)  # eta = 1/2 row


def test_mi_scan_workers_match_serial(tmp_path):
    path = _mi_scan_config(tmp_path)
    rc = run_cli(["mi-scan", "--config", str(path), "--workers", "2",
                  "--out", str(tmp_path / "w")])
    assert rc == 0
    rc = run_cli(["mi-scan", "--config", str(path), "--workers", "1",
                  "--out", str(tmp_path / "s")])
    assert rc == 0
    assert (tmp_path / "w.csv").read_text() == (tmp_path / "s.csv").read_text()


def test_threshold_command_no_crossing(tmp_path):
    cfg = {
        "model": {"name": "sbm", "q": 2, "d": 3},
        "grid": {"param": "beta", "values": [0.0, 0.2]},
        "seed": 3,
        "budget": {"pop_size": 150, "sweeps": 5, "samples": 2000},
    }
    path = tmp_path / "th.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = run_cli(["threshold", "--config", str(path), "--out", str(tmp_path / "t")])
    assert rc == 2
    manifest = json.loads((tmp_path / "t.manifest.json").read_text())
    assert manifest["error"]["type"] == "NoCrossing"
    body = (tmp_path / "t.csv").read_text()
    assert "B_pd_planted_init" in body.splitlines()[1]


def test_threshold_command_finds_crossing(tmp_path):
    cfg = {
        "model": {"name": "sbm", "q": 2, "d": 3},
        "grid": {"param": "beta", "values": [0.5, 3.5]},
        "seed": 3,
        "budget": {"pop_size": 600, "sweeps": 40, "samples": 8000},
    }
    path = tmp_path / "th.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = run_cli(["threshold", "--config", str(path), "--out", str(tmp_path / "t")])
    assert rc == 0
    payload = json.loads((tmp_path / "t.json").read_text())
    assert payload["bracket"] == [0.5, 3.5]


def test_threshold_cells_are_the_sup_bethe_candidates(tmp_path):
    # each CSV cell read back against sup_bethe run directly at the scan's
    # per-point seed, so a column cannot be filled from the wrong candidate
    cfg = {
        "model": {"name": "sbm", "q": 2, "d": 3},
        "grid": {"param": "beta", "values": [1.0, 2.0]},
        "seed": 5,
        "budget": {"pop_size": 150, "sweeps": 5, "samples": 2000},
    }
    path = tmp_path / "th.yaml"
    path.write_text(yaml.safe_dump(cfg))
    run_cli(["threshold", "--config", str(path), "--out", str(tmp_path / "t")])
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[1] == ("param,B_uniform,B_pd_uniform_init,B_pd_planted_init,"
                        "phi_a,stderr,sup,comparator")
    rows = [dict(zip(lines[1].split(","), map(float, ln.split(",")))) for ln in lines[2:]]
    assert rows
    for idx, row in enumerate(rows):
        model = models.sbm(2, row["param"], 3)
        sup = bethe.sup_bethe(model, 5 + 104729 * idx, pop_size=150, sweeps=5, samples=2000)
        expected = {"B_uniform": sup.candidates["uniform-atom"][0],
                    "B_pd_uniform_init": sup.candidates["pd-uniform-perturbed"][0],
                    "B_pd_planted_init": sup.candidates["pd-planted-polarized"][0],
                    "phi_a": bethe.annealed_free_entropy(model),
                    "stderr": sup.stderr, "sup": sup.value}
        assert {key: row[key] for key in expected} == expected
    # the three candidate columns differ, so the mapping is pinned
    assert any(len({r["B_uniform"], r["B_pd_uniform_init"], r["B_pd_planted_init"]}) == 3
               for r in rows)


@pytest.mark.parametrize("case", ["empty-graph", "short-factor-line", "spec-part-without-mass",
                                  "yaml-syntax", "support-without-mass", "flat-sections",
                                  "scalar-grid-values", "list-grid-param", "list-seed"])
def test_malformed_input_exits_2_with_a_json_error(tmp_path, capsys, case):
    # each input once raised an uncaught exception, which exits 1: the code
    # for a failed hypothesis check
    files = {"empty.graph": "", "short.graph": "3 1 2\n3\n",
             "syntax.yaml": "model: {name: ldgm\n",
             "no-mass.yaml": "model: {name: ldgm, eta: 0.1, dspec: {support: [2]}, kspec: 2}\n",
             "flat.yaml": "model: ldgm\ngrid: [1]\n",
             "values.yaml": "model: {name: sbm, q: 2, d: 3}\ngrid: {param: beta, values: 5}\n",
             "param.yaml": "model: {name: sbm, q: 2, d: 3}\ngrid: {param: [beta], values: [1]}\n",
             "seed.yaml": "model: {name: sbm, q: 2, d: 3}\ngrid: {param: beta, values: [1]}\n"
                          "seed: [1]\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    model = ["--model", "sbm", "--q", "2", "--beta", "0.7", "--d", "3"]
    argv = {
        "empty-graph": ["exact", *model, "--graph", "empty.graph"],
        "short-factor-line": ["exact", *model, "--graph", "short.graph"],
        "spec-part-without-mass": ["check", "--model", "ldgm", "--eta", "0.1",
                                   "--dspec", "2:0.5,3", "--kspec", "2"],
        "yaml-syntax": ["check", "--config", "syntax.yaml"],
        "support-without-mass": ["check", "--config", "no-mass.yaml"],
        "flat-sections": ["mi-scan", "--config", "flat.yaml"],
        "scalar-grid-values": ["mi-scan", "--config", "values.yaml"],
        "list-grid-param": ["threshold", "--config", "param.yaml"],
        "list-seed": ["mi-scan", "--config", "seed.yaml"],
    }[case]
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert run_cli(argv) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert set(error) == {"error", "message"}


@pytest.mark.parametrize("comparator, read", [
    ([1], None), ({"a": 1}, None), ("abc", None), ("1e-3", 0.001),
], ids=["list", "mapping", "word", "numeric-string"])
def test_threshold_comparator_is_annealed_or_a_number(tmp_path, capsys, comparator, read):
    # converted once, when the config is validated, before any grid point runs
    from factorcavity.errors import ConfigError

    cfg = {"model": {"name": "sbm", "q": 2, "d": 3}, "grid": {"param": "beta", "values": [1.0]},
           "budget": {"pop_size": 150, "sweeps": 2, "samples": 100}, "comparator": comparator}
    path = tmp_path / "th.yaml"
    path.write_text(yaml.safe_dump(cfg))
    if read is not None:
        assert cli.ExperimentConfig.from_file(path, "threshold").comparator == read
        return
    with pytest.raises(ConfigError, match="comparator"):
        cli.ExperimentConfig.from_file(path, "threshold")
    assert run_cli(["threshold", "--config", str(path)]) == 2
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ConfigError" and "comparator" in error["message"]


def test_config_validation_errors(tmp_path):
    cfg = {"model": {"name": "nope"}, "grid": {"param": "eta", "values": [0.1]}}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(cfg))
    rc = run_cli(["mi-scan", "--config", str(path)])
    assert rc == 2


def test_config_rejects_unknown_budget_keys():
    from factorcavity.errors import ConfigError

    config = cli.ExperimentConfig(operation="mi-scan", model={"name": "ldgm"},
                              grid_param="eta", grid_values=[0.1],
                              budget={"restarts": 2, "pop_size": 200})
    with pytest.raises(ConfigError, match="restarts"):
        config.validate()
    config.budget = {"pop_size": 200, "sweeps": 5, "samples": 100, "pos_trials": 10}
    assert config.validate() is config


def test_config_budget_values_are_numbers():
    from factorcavity.errors import ConfigError

    config = cli.ExperimentConfig(operation="mi-scan", model={"name": "ldgm"},
                                  grid_param="eta", grid_values=[0.1],
                                  budget={"pop_size": "many"})
    with pytest.raises(ConfigError, match="numbers"):
        config.validate()
    config.budget = {"pop_size": 200.0, "sweeps": 5}
    assert config.validate().budget == {"pop_size": 200, "sweeps": 5}


def test_config_file_rejects_unknown_top_level_keys(tmp_path):
    from factorcavity.errors import ConfigError

    cfg = {"model": {"name": "ldgm", "dspec": 2, "kspec": 2},
           "grid": {"param": "eta", "values": [0.3]}, "seed": 1,
           "budget": {"pop_size": 150}}
    path = tmp_path / "ok.yaml"
    path.write_text(yaml.safe_dump(cfg))
    config = cli.ExperimentConfig.from_file(path, "mi-scan")
    assert config.seed == 1 and not hasattr(config, "out")
    # an output path belongs on the command line (--out), not in the config
    path.write_text(yaml.safe_dump(dict(cfg, out="results/scan")))
    with pytest.raises(ConfigError, match="out"):
        cli.ExperimentConfig.from_file(path, "mi-scan")
    assert run_cli(["mi-scan", "--config", str(path)]) == 2


@pytest.mark.parametrize("command, extra, key", [
    ("threshold", {"budget": {"pop_size": 150, "pos_trials": 50}}, "pos_trials"),
    ("threshold", {"workers": 2}, "workers"),
    ("mi-scan", {"comparator": 0.5}, "comparator"),
    ("mi-scan", {"workers": 2}, "workers"),
])
def test_config_rejects_keys_its_command_does_not_read(tmp_path, capsys, command, extra, key):
    # such a key would change the manifest digest and nothing else
    from factorcavity.errors import ConfigError

    cfg = {"model": {"name": "ldgm", "dspec": 2, "kspec": 2},
           "grid": {"param": "eta", "values": [0.3]}, "seed": 1,
           "budget": {"pop_size": 150}}
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert cli.ExperimentConfig.from_file(path, command).operation == command
    path.write_text(yaml.safe_dump(dict(cfg, **extra)))
    with pytest.raises(ConfigError, match=key):
        cli.ExperimentConfig.from_file(path, command)
    capsys.readouterr()
    assert run_cli([command, "--config", str(path)]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "ConfigError" and key in error["message"]
