import json

import pytest

from etalab import fixtures
from etalab.cli import main
from etalab.harness import ConfigError, SweepConfig


def test_examples_exit_code_reflects_golden_state(capsys, monkeypatch):
    code = main(["examples"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 strict failure(s)" in out
    assert "PASS" in out
    # the advisory expansion table is still printed, with its note
    assert "bayes_table" in out
    assert fixtures.INCONSISTENCY_NOTE in out
    # one wrong strict golden value turns the exit code to 1
    monkeypatch.setitem(fixtures.REFERENCE_SEG, "weights", (0.9, 0.562))
    code = main(["examples"])
    out = capsys.readouterr().out
    assert code == 1
    assert "1 strict failure(s)" in out
    assert "FAIL" in out


def test_sweep_and_manifest(tmp_path, capsys):
    cfg = {"master_seed": 1, "grid_sizes": [3], "exponents": [1.0],
           "n_predict": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"
    man_path = tmp_path / "manifest.json"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out_path),
                 "--manifest", str(man_path)])
    assert code == 0
    text = out_path.read_text().splitlines()
    assert text[0] == "grid_size,alpha,seg_simple,route,route_grow,bayes_optimal,lb"
    assert len(text) == 2
    manifest = json.loads(man_path.read_text())
    assert manifest["seed"] == 1
    assert manifest["wall_time_s"] >= 0.0


def test_sweep_bad_config_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"not_a_key": True}))
    code = main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err
    cfg_path.write_text(json.dumps({"exponents": [1.0, 1.0004]}))
    code = main(["sweep", "--config", str(cfg_path),
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "exponents must differ" in capsys.readouterr().err


_BAD_SWEEP_CONFIGS = [
    ("n_predict", 2.5),
    ("workers", 1.5),
    ("master_seed", -1),
    ("master_seed", 1.5),
    ("white", float("inf")),
    ("grid_sizes", [2.5]),
    ("grid_sizes", [True]),
    ("tau2", float("nan")),
]


@pytest.mark.parametrize("key,value", _BAD_SWEEP_CONFIGS,
                         ids=[f"{k}={v}" for k, v in _BAD_SWEEP_CONFIGS])
def test_sweep_rejects_config_it_cannot_run(tmp_path, capsys, key, value):
    # each of these once ran, crashed with a raw error or wrote a wrong CSV
    payload = {"grid_sizes": [3], "exponents": [1.0], "n_predict": 3, key: value}
    with pytest.raises(ConfigError, match=key):
        SweepConfig.from_dict(payload)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(payload))  # inf and nan as Infinity and NaN
    out_path = tmp_path / "rows.csv"
    code = main(["sweep", "--config", str(cfg_path), "--out", str(out_path),
                 "--manifest", str(tmp_path / "manifest.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out_path.exists()


def test_oracle_fast(capsys):
    code = main(["oracle", "--fixture", "merge", "--replicates", "20000",
                 "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 2


@pytest.mark.parametrize("replicates", ["0", "-3"])
def test_oracle_rejects_replicates_below_one(capsys, replicates):
    code = main(["oracle", "--fixture", "reference", "--replicates", replicates])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err
    assert "PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ["oracle", "--fixture", "merge", "--replicates", "10", "--seed", "-1"],
    ["diag", "--covariance", "diffusion:p=2", "--seed", "-1"],
])
def test_negative_seed_is_a_config_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "config error: --seed must be at least 0, got -1\n"
    assert captured.out == ""


def test_oracle_unknown_fixture(capsys):
    with pytest.raises(SystemExit):
        main(["oracle", "--fixture", "bogus"])


def test_diag_diffusion(capsys):
    code = main(["diag", "--covariance", "diffusion:p=3,u=1,v=1,white=0.5"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_segments"] == 48
    assert payload["min_eigenvalue"] > 0.0
    assert payload["max_abs_row_sum_sigma"] > 0.0


def test_diag_with_routes(capsys):
    code = main(["diag", "--covariance", "gram:p=3,m=60,law=unif_0_1,seed=4",
                 "--routes", "5", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_routes_checked"] == 5


def test_diag_singular_covariance(capsys):
    # a rank-3 Gram covariance on 48 segments has no precision; diag still
    # reports its spectrum and exits 0
    code = main(["diag", "--covariance", "gram:p=3,m=3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_segments"] == 48
    assert payload["rank"] == 3
    assert payload["max_abs_row_sum_precision"] is None
    assert abs(payload["min_eigenvalue"]) < 1e-12
    assert payload["max_eigenvalue"] > 0.0


def test_diag_bad_descriptor(capsys):
    code = main(["diag", "--covariance", "bogus:p=3"])
    assert code == 2
    assert "unknown covariance kind" in capsys.readouterr().err


def test_diag_csv_roundtrip(tmp_path, capsys):
    from etalab.fixtures import reference_covariance

    path = tmp_path / "cov.csv"
    reference_covariance().to_csv(path)
    code = main(["diag", "--covariance", f"csv:{path}"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_segments"] == 48


def _bad_csv(tmp_path, kind):
    path = tmp_path / "cov.csv"
    if kind == "directory":
        path.mkdir()
    elif kind == "non_numeric":
        path.write_text("0,1\n1.0\nx,1.0\n")
    elif kind == "empty":
        path.write_text("")
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "non_numeric", "empty"])
def test_diag_bad_csv_is_a_config_error(tmp_path, capsys, kind):
    code = main(["diag", "--covariance", f"csv:{_bad_csv(tmp_path, kind)}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error: cannot read covariance csv")
    assert captured.out == ""
