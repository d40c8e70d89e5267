import dataclasses
import json

import pytest

from gafs import experiment
from gafs.cli import main
from gafs.experiment import (
    ExperimentConfig,
    ExperimentResult,
    emit_reports,
    format_verification,
    resolve_target,
    run_experiment,
    verify_appendix,
)
from gafs.ga import GAConfig, compute_fitness
from gafs.metrics import ConfusionMatrix
from gafs.nslkdd import DOS_ATTACKS, FEATURE_NAMES, FeatureMask
from gafs.reference import ReferenceCase


def fixed_cfg(synth_files, target="flood",
              features=("protocol_type", "wrong_fragment"), criterion="entropy"):
    train, test = synth_files
    return ExperimentConfig(
        train_path=train, test_path=test, mode="fixed", target=target,
        criterion=criterion, fixed_features=tuple(features),
    )


def ga_cfg(synth_files, seed=3, pop=8, generations=3, target="flood"):
    train, test = synth_files
    return ExperimentConfig(
        train_path=train, test_path=test, mode="ga", target=target,
        criterion="entropy",
        ga=GAConfig(seed=seed, population_size=pop, generations=generations),
    )


# -------------------------------------------------------------- configuration


def test_fixed_mode_requires_features(synth_files):
    train, test = synth_files
    with pytest.raises(ValueError, match="feature list"):
        ExperimentConfig(train_path=train, test_path=test, mode="fixed",
                         target="flood")


def test_fixed_mode_rejects_blank_only_features(synth_files, capsys):
    train, test = synth_files
    for names in (("",), ("", " "), (" \t",)):
        with pytest.raises(ValueError, match="feature list"):
            ExperimentConfig(train_path=train, test_path=test, mode="fixed",
                             target="flood", fixed_features=names)
    assert run_cli("--train", train, "--test", test, "--mode", "fixed",
                   "--attack", "flood", "--features", ",") == 1
    captured = capsys.readouterr()
    assert "feature list" in captured.err and "no classifier" not in captured.out


def test_ga_mode_requires_ga_config(synth_files):
    train, test = synth_files
    with pytest.raises(ValueError, match="GAConfig"):
        ExperimentConfig(train_path=train, test_path=test, mode="ga",
                         target="flood")


def test_resolve_target_expands_dos_all():
    assert resolve_target("dos-all", {"normal"}) == DOS_ATTACKS


def test_resolve_target_accepts_present_labels():
    assert resolve_target("flood", {"flood", "normal"}) == frozenset({"flood"})
    assert resolve_target("Smurf, BACK", set()) == frozenset({"smurf", "back"})


def test_resolve_target_rejects_unknown_with_roster():
    with pytest.raises(ValueError) as err:
        resolve_target("warhol", {"flood", "normal"})
    message = str(err.value)
    assert "warhol" in message
    for name in sorted(DOS_ATTACKS):
        assert name in message


# ------------------------------------------------------------- run_experiment


def test_fixed_experiment_on_separable_target(synth_files):
    result = run_experiment(fixed_cfg(synth_files))
    assert result.best.cm.fn == 0 and result.best.cm.fp == 0
    assert result.best.metrics.f_measure == 1.0
    assert result.best.fitness == 0.0
    assert result.history == ()
    assert result.best.cm.total == 400
    assert result.selected_features == ("protocol_type", "wrong_fragment")
    assert result.duration_seconds > 0


def test_experiment_surfaces_codebook_warnings(synth_files):
    result = run_experiment(fixed_cfg(synth_files))
    assert any("telnet" in w for w in result.codebook.warnings())
    assert any("telnet" in w for w in result.to_dict()["codebook_warnings"])


def test_unknown_attack_rejected(synth_files):
    with pytest.raises(ValueError, match="valid names"):
        run_experiment(fixed_cfg(synth_files, target="no_such_attack"))


def test_unknown_fixed_feature_rejected(synth_files):
    with pytest.raises(ValueError) as err:
        run_experiment(fixed_cfg(synth_files, features=("protocol_type", "bogus")))
    message = str(err.value)
    assert "bogus" in message
    for name in FEATURE_NAMES:
        assert name in message


def test_ga_experiment_runs_and_records_history(synth_files):
    result = run_experiment(ga_cfg(synth_files))
    assert result.history
    assert result.best.fitness == min(result.history)
    assert result.best.mask.selected_count == len(result.selected_features)


def test_mismatched_ga_criterion_rejected_before_any_file_is_read(tmp_path):
    absent = tmp_path / "absent.txt"
    for mode, features in (("ga", None), ("fixed", ("land",))):
        with pytest.raises(ValueError, match="GA criterion 'entropy' differs from the "
                                             "experiment criterion 'gini'"):
            ExperimentConfig(train_path=absent, test_path=absent, mode=mode, target="land",
                             criterion="gini", fixed_features=features,
                             ga=GAConfig(seed=1, criterion="entropy"))
    consistent = ExperimentConfig(train_path=absent, test_path=absent, mode="ga",
                                  target="land", criterion="gini",
                                  ga=GAConfig(seed=1, criterion="gini"))
    assert consistent.ga.criterion == "gini"


def test_fixed_mode_with_ga_config_rejected_before_any_file_is_read(tmp_path):
    absent = tmp_path / "absent.txt"
    with pytest.raises(ValueError, match="fixed mode runs no search and takes no GAConfig"):
        ExperimentConfig(train_path=absent, test_path=absent, mode="fixed", target="land",
                         fixed_features=("land",), ga=GAConfig(seed=5))


def test_ga_mode_with_fixed_features_rejected_before_any_file_is_read(tmp_path):
    absent = tmp_path / "absent.txt"
    with pytest.raises(ValueError, match="ga mode .* takes no fixed_features"):
        ExperimentConfig(train_path=absent, test_path=absent, mode="ga", target="neptune",
                         fixed_features=("count",), ga=GAConfig(seed=1))


def test_unknown_fixed_feature_rejected_before_any_file_is_read(tmp_path):
    absent = tmp_path / "absent.txt"
    with pytest.raises(ValueError, match="unknown feature name\\(s\\) bogus; valid names"):
        ExperimentConfig(train_path=absent, test_path=absent, mode="fixed", target="land",
                         fixed_features=("protocol_type", " bogus ", ""))
    # blank names are skipped and the rest stripped, as run_experiment reads them
    cfg = ExperimentConfig(train_path=absent, test_path=absent, mode="fixed", target="land",
                           fixed_features=(" count", "", "land "))
    assert cfg.fixed_mask().selected_names() == ("land", "count")


# --------------------------------------------------------------- emit_reports


def test_emit_writes_expected_files(tmp_path, synth_files):
    result = run_experiment(fixed_cfg(synth_files))
    written = {p.name for p in emit_reports(result, tmp_path / "out")}
    assert written == {"result.json", "table.txt", "features.txt", "codebook.json"}


def test_emit_feature_line_uses_report_aliases(tmp_path, synth_files):
    result = run_experiment(fixed_cfg(synth_files))
    emit_reports(result, tmp_path / "out")
    line = (tmp_path / "out" / "features.txt").read_text().strip()
    assert line == "flood: 'proto_type', 'wrong_fragment'"


def test_emit_ga_mode_includes_history(tmp_path, synth_files):
    result = run_experiment(ga_cfg(synth_files))
    written = {p.name for p in emit_reports(result, tmp_path / "out")}
    assert "history.csv" in written
    lines = (tmp_path / "out" / "history.csv").read_text().splitlines()
    assert lines[0] == "generation,best_fitness"
    assert len(lines) == len(result.history) + 1


def test_emit_is_byte_stable(tmp_path, synth_files):
    result = run_experiment(fixed_cfg(synth_files))
    emit_reports(result, tmp_path / "a")
    emit_reports(result, tmp_path / "b")
    for name in ("result.json", "table.txt", "features.txt", "codebook.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_end_to_end_determinism(tmp_path, synth_files):
    emit_reports(run_experiment(ga_cfg(synth_files, seed=17)), tmp_path / "a")
    emit_reports(run_experiment(ga_cfg(synth_files, seed=17)), tmp_path / "b")
    for name in ("result.json", "history.csv", "table.txt", "features.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_serial_workers_keyword_is_accepted_and_no_other(tmp_path, synth_files):
    cfg = ga_cfg(synth_files, seed=17)
    emit_reports(run_experiment(cfg, workers=1), tmp_path / "a")
    emit_reports(run_experiment(cfg), tmp_path / "b")
    assert (tmp_path / "a" / "result.json").read_bytes() == \
        (tmp_path / "b" / "result.json").read_bytes()
    with pytest.raises(ValueError, match="workers"):
        run_experiment(cfg, workers=2)


def test_emit_handles_empty_mask_result(tmp_path, synth_files):
    # a search over a target with no test positives can legitimately end on
    # the empty mask (every mask scores fitness 1.0 and fewer genes win ties)
    from gafs.ga import EvaluatedIndividual
    from gafs.nslkdd import FeatureMask

    base = run_experiment(ga_cfg(synth_files, pop=4, generations=1))
    empty = EvaluatedIndividual(mask=FeatureMask((False,) * 41), fitness=1.0)
    degenerate = ExperimentResult(
        config=base.config, target_attacks=base.target_attacks, best=empty,
        codebook=base.codebook, duration_seconds=0.1,
        search=dataclasses.replace(base.search, best=empty, history=(1.0,)),
    )
    written = emit_reports(degenerate, tmp_path / "out")
    assert {p.name for p in written} >= {"result.json", "table.txt", "features.txt"}
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc["confusion"] is None and doc["metrics"] is None
    assert doc["fitness"] == 1.0
    text = "no classifier: the search ended on the empty feature mask (fitness 1.0)"
    assert degenerate.table_text() == text
    assert (tmp_path / "out" / "table.txt").read_text() == text + "\n"
    assert (tmp_path / "out" / "features.txt").read_text().strip().endswith("(none)")


def test_result_json_excludes_timing(tmp_path, synth_files):
    result = run_experiment(fixed_cfg(synth_files))
    emit_reports(result, tmp_path / "out")
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert "duration" not in json.dumps(doc)
    assert doc["confusion"]["total"] == 400
    assert doc["metrics"]["f_measure"] == 1.0


# ------------------------------------------------------------ verify_appendix


def test_verify_appendix_mechanics_on_synth(synth_files):
    train, test = synth_files
    rows = verify_appendix(train, test)
    assert len(rows) == 10
    text = format_verification(rows)
    assert "dos-all/entropy" in text
    assert "teardrop/gini" in text
    assert "delta" in text
    # synthetic traffic has no DoS rows: every reference target comes out empty
    for row in rows:
        assert row.cm.tp + row.cm.fn == 0


def test_verify_appendix_relabels_each_target_once(synth_files, monkeypatch):
    train_path, test_path = synth_files
    names = (("protocol_type", "count"), ("service", "src_bytes", "count", "flag"),
             tuple(FEATURE_NAMES))
    cases = tuple(
        ReferenceCase(name=f"{target}/{criterion}/k{len(features)}", target=target,
                      criterion=criterion, features=features,
                      expected_cm=ConfusionMatrix(tp=0, fn=0, fp=0, tn=0))
        for features in names for target in ("flood", "burst") for criterion in ("entropy", "gini")
    )
    calls, tables = [], []
    real = experiment.relabel
    monkeypatch.setattr(experiment, "relabel",
                        lambda data, attacks: calls.append(attacks) or real(data, attacks))
    real_table = experiment.SplitTable
    monkeypatch.setattr(experiment, "SplitTable",
                        lambda *a: tables.append(a[1:]) or real_table(*a))
    rows = verify_appendix(train_path, test_path, cases)
    assert len(rows) == 12 and len(calls) == 4
    # one split table per target and criterion
    assert len(tables) == 4 and set(tables) == {("entropy",), ("gini",)}
    # each case as it ran with sets relabelled for it alone
    train, test, _ = experiment._load(train_path, test_path)
    for row, case in zip(rows, cases):
        attacks = {case.target}
        fresh = compute_fitness(FeatureMask.from_names(case.features), real(train, attacks),
                                real(test, attacks), case.criterion)
        assert row.case is case and row.cm == fresh.cm and row.report == fresh.metrics


# ------------------------------------------------------------------------ CLI


def run_cli(*args):
    return main([str(a) for a in args])


def test_cli_fixed_mode_writes_reports(tmp_path, synth_files, capsys):
    train, test = synth_files
    code = run_cli(
        "--train", train, "--test", test, "--mode", "fixed",
        "--attack", "flood", "--features", "protocol_type,wrong_fragment",
        "--out", tmp_path / "out",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "flood: 'proto_type', 'wrong_fragment'" in out
    assert "100.00%" in out
    assert (tmp_path / "out" / "result.json").exists()
    assert not (tmp_path / "out" / "history.csv").exists()


@pytest.mark.parametrize("mode", ["ga", "fixed"])
def test_cli_prints_the_table_that_table_txt_holds(tmp_path, synth_files, capsys, mode):
    train, test = synth_files
    run = ["--pop", 6, "--generations", 2] if mode == "ga" else ["--features", "land,count"]
    assert run_cli("--train", train, "--test", test, "--mode", mode, "--attack", "burst",
                   *run, "--out", tmp_path / "out") == 0
    table = (tmp_path / "out" / "table.txt").read_text()
    assert table.startswith("Features  Attack") and len(table.splitlines()) == 2
    # the block stands on its own lines, a blank line after it
    assert f"\n{table}\n" in "\n" + capsys.readouterr().out


def test_cli_ga_mode_traces_and_logs(tmp_path, synth_files, capsys):
    train, test = synth_files
    code = run_cli(
        "--train", train, "--test", test, "--mode", "ga", "--attack", "flood",
        "--pop", 8, "--generations", 3, "--seed", 5, "--out", tmp_path / "out",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "generation 0:" in out
    log = (tmp_path / "out" / "run.log").read_text().splitlines()
    assert log[0] == "generation,best_fitness,selected_count,elapsed_seconds"
    assert len(log) >= 2


def test_cli_reruns_are_byte_identical(tmp_path, synth_files):
    train, test = synth_files
    for name in ("a", "b"):
        assert run_cli(
            "--train", train, "--test", test, "--mode", "ga", "--attack", "flood",
            "--pop", 6, "--generations", 2, "--seed", 9, "--out", tmp_path / name,
        ) == 0
    assert (tmp_path / "a" / "result.json").read_bytes() == \
        (tmp_path / "b" / "result.json").read_bytes()


def test_cli_unknown_attack_fails(synth_files, capsys):
    train, test = synth_files
    code = run_cli("--train", train, "--test", test, "--mode", "fixed",
                   "--attack", "nope", "--features", "land")
    assert code == 1
    assert "valid names" in capsys.readouterr().err


def test_cli_missing_file_fails(tmp_path, capsys):
    code = run_cli("--train", tmp_path / "absent.txt", "--test", tmp_path / "absent.txt",
                   "--mode", "fixed", "--attack", "land", "--features", "land")
    assert code == 1


def test_cli_fixed_requires_features(synth_files):
    train, test = synth_files
    with pytest.raises(SystemExit):
        run_cli("--train", train, "--test", test, "--mode", "fixed",
                "--attack", "flood")


def test_cli_features_invalid_in_ga_mode(synth_files):
    train, test = synth_files
    with pytest.raises(SystemExit):
        run_cli("--train", train, "--test", test, "--mode", "ga",
                "--attack", "flood", "--features", "land")


def test_cli_config_file_and_flag_precedence(tmp_path, synth_files):
    train, test = synth_files
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"pop": 6, "generations": 2, "seed": 4}))
    out_a = tmp_path / "a"
    assert run_cli("--train", train, "--test", test, "--mode", "ga",
                   "--attack", "flood", "--config", config, "--out", out_a) == 0
    doc = json.loads((out_a / "result.json").read_text())
    assert doc["ga"]["population_size"] == 6
    assert doc["ga"]["seed"] == 4

    out_b = tmp_path / "b"
    assert run_cli("--train", train, "--test", test, "--mode", "ga",
                   "--attack", "flood", "--config", config, "--pop", 9,
                   "--out", out_b) == 0
    doc_b = json.loads((out_b / "result.json").read_text())
    assert doc_b["ga"]["population_size"] == 9  # flag beats config file
    assert doc_b["ga"]["seed"] == 4


# each GA setting: a value other than its default, and where result.json records it
GA_SETTINGS = {
    "criterion": ("gini", ("config", "criterion")),
    "pop": (5, ("ga", "population_size")),
    "generations": (2, ("ga", "generations")),
    "mutation_rate": (0.05, ("ga", "mutation_rate")),
    "crossover_rate": (0.75, ("ga", "crossover_rate")),
    "tournament": (3, ("ga", "tournament_size")),
    "seed": (7, ("ga", "seed")),
    "early_stop": (-1.0, ("ga", "early_stop_fitness")),
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key", sorted(GA_SETTINGS))
def test_cli_ga_setting_reaches_result_json(tmp_path, synth_files, key, source):
    train, test = synth_files
    value, (section, field) = GA_SETTINGS[key]
    small = {"pop": 4, "generations": 1}
    small.pop(key, None)
    args = [arg for flag, size in small.items() for arg in (f"--{flag}", size)]
    if source == "flag":
        args.append(f"--{key.replace('_', '-')}={value}")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        args += ["--config", config]
    assert run_cli("--train", train, "--test", test, "--mode", "ga", "--attack", "burst",
                   *args, "--out", tmp_path / "out") == 0
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc[section][field] == value


def test_cli_ga_run_without_settings_records_the_gaconfig_defaults(tmp_path, synth_files):
    # flood is separable here, so the default early stop at fitness 0 ends the
    # default-sized search after its first generation
    train, test = synth_files
    assert run_cli("--train", train, "--test", test, "--mode", "ga", "--attack", "flood",
                   "--out", tmp_path / "out") == 0
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    defaults = GAConfig(seed=0)
    assert doc["config"]["criterion"] == defaults.criterion == "entropy"
    assert {key: value for key, value in doc["ga"].items() if key != "history"} == {
        "seed": 0,
        "population_size": defaults.population_size,
        "generations": defaults.generations,
        "mutation_rate": defaults.mutation_rate,
        "crossover_rate": defaults.crossover_rate,
        "tournament_size": defaults.tournament_size,
        "early_stop_fitness": defaults.early_stop_fitness,
    }


def test_cli_rejects_unknown_config_key(tmp_path, synth_files, capsys):
    train, test = synth_files
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"population": 6}))
    code = run_cli("--train", train, "--test", test, "--mode", "ga",
                   "--attack", "flood", "--config", config)
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"pop": "10"}, "config key 'pop' must be an integer, got '10'"),
    ({"pop": 10.5}, "config key 'pop' must be an integer, got 10.5"),
    ({"seed": True}, "config key 'seed' must be an integer, got True"),
    ({"mutation_rate": "0.1"}, "config key 'mutation_rate' must be a number, got '0.1'"),
    ({"early_stop": False}, "config key 'early_stop' must be a number, got False"),
    ({"criterion": 1}, "config key 'criterion' must be a string, got 1"),
    ([1, 2], "must hold a JSON object"),
], ids=["str-for-int", "float-for-int", "bool-for-int", "str-for-number", "bool-for-number",
        "int-for-str", "array-document"])
def test_cli_rejects_wrong_typed_config_values(tmp_path, synth_files, capsys, doc, message):
    train, test = synth_files
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code = run_cli("--train", train, "--test", test, "--mode", "ga",
                   "--attack", "flood", "--config", config)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_rejects_non_finite_early_stop(tmp_path, synth_files, capsys, source, value):
    # fitness > nan is never true, so a NaN threshold would end the search
    # after generation 0; result.json would then hold a non-JSON token
    train, test = synth_files
    args = ["--train", train, "--test", test, "--mode", "ga", "--attack", "flood",
            "--pop", 6, "--generations", 3, "--out", tmp_path / "out"]
    if source == "flag":
        args.append(f"--early-stop={value}")
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"early_stop": float(value)}))  # NaN, Infinity
        args += ["--config", config]
    assert run_cli(*args) == 1
    assert capsys.readouterr().err.startswith("error: early_stop_fitness must be finite")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["ga", "fixed"])
def test_unknown_criterion_rejected_before_any_file_is_read(tmp_path, capsys, mode):
    absent = tmp_path / "absent.txt"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"criterion": "variance"}))
    features = ["--features", "land"] if mode == "fixed" else []
    code = run_cli("--train", absent, "--test", absent, "--mode", mode,
                   "--attack", "land", "--config", config, *features)
    assert code == 1
    message = "criterion must be one of ('entropy', 'gini'), got 'variance'"
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ValueError, match="got 'variance'"):
        GAConfig(seed=0, criterion="variance")
    with pytest.raises(ValueError, match="got 'variance'"):
        ExperimentConfig(train_path=absent, test_path=absent, mode="fixed", target="land",
                         criterion="variance", fixed_features=("land",))


def test_cli_verify_appendix_runs_on_synth(tmp_path, synth_files, capsys):
    train, test = synth_files
    code = run_cli("--train", train, "--test", test, "--verify-appendix",
                   "--out", tmp_path / "v")
    assert code == 0
    assert "land/entropy" in capsys.readouterr().out
    assert (tmp_path / "v" / "verification.txt").exists()


# each GA setting's flag, and a value the parser accepts for it
GA_FLAGS = {f"--{key.replace('_', '-')}": str(value) for key, (value, _) in GA_SETTINGS.items()}


@pytest.mark.parametrize("flag, value", [("--mode", "ga"), ("--attack", "flood"),
                                         ("--features", "land"), *GA_FLAGS.items()])
def test_cli_verify_appendix_refuses_the_run_flags(synth_files, capsys, flag, value):
    train, test = synth_files
    with pytest.raises(SystemExit) as stop:
        run_cli("--train", train, "--test", test, "--verify-appendix", flag, value)
    assert stop.value.code == 2
    assert f"--verify-appendix cannot be combined with {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", sorted(set(GA_FLAGS) - {"--criterion"}))
def test_cli_fixed_mode_refuses_the_ga_flags(synth_files, capsys, flag):
    train, test = synth_files
    with pytest.raises(SystemExit) as stop:
        run_cli("--train", train, "--test", test, "--mode", "fixed", "--attack", "flood",
                "--features", "land", flag, GA_FLAGS[flag])
    assert stop.value.code == 2
    assert f"--mode fixed cannot be combined with {flag}" in capsys.readouterr().err


def test_cli_config_file_keys_serve_every_kind_of_run(tmp_path, synth_files):
    # a config file supplies defaults, so the runs that ignore a key accept it
    train, test = synth_files
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value for key, (value, _) in GA_SETTINGS.items()}))
    assert run_cli("--train", train, "--test", test, "--verify-appendix",
                   "--config", config) == 0
    assert run_cli("--train", train, "--test", test, "--mode", "fixed", "--attack", "flood",
                   "--features", "land", "--config", config, "--out", tmp_path / "out") == 0
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc["config"]["criterion"] == GA_SETTINGS["criterion"][0]


def test_cli_refuses_a_negative_seed_before_any_file_is_read(tmp_path, capsys):
    absent = tmp_path / "absent.txt"
    code = run_cli("--train", absent, "--test", absent, "--mode", "ga", "--attack", "land",
                   "--seed", -1)
    assert code == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


# ------------------------------------------------------------------ real data


@pytest.mark.real_data
def test_real_land_fixed_experiment_end_to_end(tmp_path, real_paths):
    train, test = real_paths
    cfg = ExperimentConfig(
        train_path=train, test_path=test, mode="fixed", target="land",
        criterion="entropy", fixed_features=("land",),
    )
    result = run_experiment(cfg)
    assert result.best.cm.as_tuple() == (7, 0, 0, 22537)
    assert result.best.cm.total == 22_544
    assert result.best.metrics.f_measure == 1.0
    emit_reports(result, tmp_path / "out")
    line = (tmp_path / "out" / "features.txt").read_text().strip()
    assert line == "land: 'land'"


def test_cli_ga_mode_reports_evaluation_counts(tmp_path, synth_files, capsys):
    train, test = synth_files
    search = run_experiment(ga_cfg(synth_files, pop=8, generations=4, target="burst")).search
    assert search.requested == 8 * len(search.history) == 40
    assert search.requested == search.exact_hits + search.memo_hits + search.fitted
    assert search.fitted < search.requested and search.split_hits > 0
    assert run_experiment(fixed_cfg(synth_files)).search is None
    assert run_cli(
        "--train", train, "--test", test, "--mode", "ga", "--attack", "burst",
        "--pop", 8, "--generations", 4, "--seed", 3, "--out", tmp_path / "out",
    ) == 0
    out = capsys.readouterr().out.splitlines()
    line = ("evaluations requested=40 exact_hits={} memo_hits={} fitted={} split_hits={}"
            .format(search.exact_hits, search.memo_hits, search.fitted, search.split_hits))
    assert line in out
    assert (tmp_path / "out" / "run.log").read_text().splitlines()[-1] == line
