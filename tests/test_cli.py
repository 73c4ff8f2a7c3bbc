"""Config schema, coercion, and end-to-end command runs."""

import json
import os

import pytest

from crisp import backtest, cli
from crisp.cli import UsageError, echo_config, load_config, main
from crisp.features import N_FEATURES
from crisp.training import TrainConfig


SMALL_RUN = """
[data]
train_frac = 0.7

[synthetic]
days = 160

[train]
max_epochs = 1
batch_size = 16
patience = 2
"""


# every key of a run with no config, as echoed to resolved_config.ini
DEFAULT_RESOLVED = """\
[data]
source = synthetic
csv_path = {blank}
universe_file = {blank}
window = 20
horizon = 5
train_frac = 0.7
train_stride = 3

[synthetic]
days = 1500
seed = 11
p_calm_to_crisis = 0.02
p_crisis_to_calm = 0.1
calm_vol = 0.01
crisis_vol = 0.03
calm_corr = 0.2
crisis_corr = 0.8
calm_mean = 0.0004
crisis_mean = -0.002
defensive_vol_factor = 0.4
defensive_indices = auto

[model]
n_features = 31
gat_heads = 4
use_alloc_lstm = true
static_graph = false
init_seed = 0

[train]
learning_rate = 0.001
lr_min = 1e-05
batch_size = 32
max_epochs = 200
patience = 15
val_fraction = 0.1
clip_norm = 5.0
seed = 0

[loss]
sharpe = 0.4
sortino = 0.2
risk = 0.3
diversification = 0.05
turnover = 0.05
risk_free_daily = 0.0
cvar_alpha = 0.05
turnover_target = 0.02
turnover_width = 0.01

[backtest]
strategies = crisp,equal_weight,mean_variance,risk_parity
mv_risk_aversion = 1.0
mv_lookback = 252
rp_lookback = 252
random_seed = 0
""".format(blank="")


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_defaults_cover_every_key():
    cfg = load_config(None)
    assert set(cfg) == {"data", "synthetic", "model", "train", "loss", "backtest"}
    assert cfg["data"]["window"] == 20
    assert cfg["data"]["horizon"] == 5
    assert cfg["model"]["n_features"] == N_FEATURES
    assert cfg["train"]["max_epochs"] == 200
    assert cfg["loss"]["sharpe"] == 0.4
    assert cfg["loss"]["turnover_target"] == 0.02


def test_overrides_are_coerced(tmp_path):
    path = write(tmp_path, """
[train]
batch_size = 8

[model]
static_graph = yes

[loss]
sharpe = 0.5
""")
    cfg = load_config(path)
    assert cfg["train"]["batch_size"] == 8
    assert cfg["model"]["static_graph"] is True
    assert cfg["loss"]["sharpe"] == 0.5
    # untouched keys keep their defaults
    assert cfg["train"]["patience"] == 15


@pytest.mark.parametrize("text,fragment", [
    ("[nonsense]\nx = 1\n", "unknown config section"),
    ("[train]\nwarmup = 5\n", "unknown config key"),
    ("[train]\nbatch_size = fast\n", "not a valid int"),
    ("[model]\nstatic_graph = maybe\n", "not a valid bool"),
])
def test_bad_config_rejected(tmp_path, text, fragment):
    path = write(tmp_path, text)
    with pytest.raises(UsageError, match=fragment):
        load_config(path)


def test_missing_config_file_rejected():
    with pytest.raises(UsageError, match="not found"):
        load_config("/no/such/file.ini")


def test_echo_round_trip(tmp_path):
    cfg = load_config(None)
    cfg["train"]["batch_size"] = 7
    cfg["loss"]["cvar_alpha"] = 0.1
    cfg["model"]["use_alloc_lstm"] = False
    path = echo_config(cfg, str(tmp_path))
    assert load_config(path) == cfg


def test_default_resolved_config_text(tmp_path):
    path = echo_config(load_config(None), str(tmp_path))
    with open(path) as fh:
        assert fh.read() == DEFAULT_RESOLVED


class _Stop(Exception):
    pass


@pytest.mark.parametrize("model_section, repeated", [
    ("", None),
    ("[model]\nn_features = 27\n", "'Full CRISP' and 'w/o Crisis Features'"),
], ids=["default", "crisisless_base"])
def test_train_variant_and_ablation_build_equal_model_configs(
        tmp_path, monkeypatch, capsys, book, prior, small_universe, model_section, repeated):
    seen = []

    def record(universe, book, prior, windows, model_config, *rest):
        seen.append(model_config)
        raise _Stop

    cfg = write(tmp_path, SMALL_RUN + model_section)
    monkeypatch.setattr(cli, "train_on_universe", record)
    for variant in backtest.VARIANTS:
        assert main(["train", "--config", cfg, "--variant", variant,
                     "--out", str(tmp_path / variant)]) == 1
    from_cli = list(seen)
    seen.clear()

    monkeypatch.setattr(backtest, "train_on_universe", record)
    for row, _ in backtest.VARIANTS.values():
        # a base that already is one variant makes two rows the same model
        with pytest.raises(ValueError if repeated else _Stop, match=repeated):
            backtest.ablation_suite(small_universe, book, prior, [], [], TrainConfig(),
                                    from_cli[0], only=[row])
    assert seen == ([] if repeated else from_cli)
    assert len(from_cli) == len(backtest.VARIANTS)
    capsys.readouterr()


def test_usage_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "[nonsense]\nx = 1\n")
    code = main(["synth", "--config", bad, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("train", "clip_norm", 0, "clip_norm must be positive, got 0.0"),
    ("model", "gat_heads", 3, "3 heads do not divide refined width 128"),
    ("synthetic", "crisis_vol", -1, "crisis_vol must be positive, got -1.0"),
    ("synthetic", "days", 1, "need at least 2 days, got 1"),
    ("synthetic", "defensive_indices", 40, "defensive index 40 out of range for 13 tickers"),
    ("backtest", "mv_lookback", -5, "mean_variance: lookback must be >= 2 days, got -5"),
    ("backtest", "rp_lookback", 1, "risk_parity: lookback must be >= 2 days, got 1"),
    ("backtest", "mv_risk_aversion", -1.0,
     "mean_variance: risk_aversion must be finite and >= 0, got -1.0"),
    ("backtest", "mv_risk_aversion", "nan",
     "mean_variance: risk_aversion must be finite and >= 0, got nan"),
], ids=["clip_norm", "gat_heads", "crisis_vol", "days", "defensive_indices",
        "mv_lookback", "rp_lookback", "mv_risk_aversion", "mv_risk_aversion_nan"])
def test_out_of_range_config_values_are_usage_errors(tmp_path, capsys, section, key,
                                                     value, message):
    # the dataclasses and baselines are built before any data work, so no
    # output appears
    cfg = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    for command in ("synth", "train", "backtest", "ablate"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: [{section}] {message}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("window", 0), ("horizon", 0), ("horizon", -1), ("train_stride", 0),
])
def test_window_lengths_below_one_are_usage_errors(tmp_path, capsys, key, value):
    cfg = write(tmp_path, f"[data]\n{key} = {value}\n[synthetic]\ndays = 160\n")
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"[data] {key} must be >= 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("days, message", [
    (20, "history of 20 return days cannot fit window=20 plus horizon=5"),
    (30, "train split is empty; raise train_frac or add data"),
], ids=["no_window", "no_train_window"])
def test_too_short_markets_are_usage_errors(tmp_path, capsys, days, message):
    cfg = write(tmp_path, f"[synthetic]\ndays = {days}\n")
    for command in ("train", "backtest", "ablate"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_features_prints_roster(capsys):
    assert main(["features"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "name,category,formula"
    assert len(lines) == 1 + N_FEATURES


def test_synth_writes_market(tmp_path, capsys):
    cfg = write(tmp_path, "[synthetic]\ndays = 30\n")
    out = tmp_path / "synth"
    assert main(["synth", "--config", cfg, "--out", str(out)]) == 0
    market = (out / "universe.csv").read_text().strip().split("\n")
    assert market[0] == "date,ticker,close,volume"
    n_days = len((out / "regimes.csv").read_text().strip().split("\n")) - 1
    assert n_days == 30
    assert len(market) == 1 + 13 * 31       # a base-day close precedes return day 0
    assert (out / "resolved_config.ini").is_file()
    assert "30 return days (31 closes) x 13 tickers" in capsys.readouterr().out


def test_synth_csv_reloads_to_the_same_split(tmp_path, capsys):
    cfg = write(tmp_path, "[synthetic]\ndays = 400\n[backtest]\nstrategies = equal_weight\n")
    assert main(["synth", "--config", cfg, "--out", str(tmp_path / "synth")]) == 0
    reload = write(tmp_path, f"[data]\nsource = csv\ncsv_path = {tmp_path / 'synth'}"
                             f"/universe.csv\n[backtest]\nstrategies = equal_weight\n",
                   name="csv.ini")
    summaries = []
    for path, out in ((cfg, "memory"), (reload, "csv")):
        assert main(["backtest", "--config", path, "--out", str(tmp_path / out)]) == 0
        summaries.append(json.loads((tmp_path / out / "metrics.json").read_text()))
    capsys.readouterr()
    memory, csv = summaries
    assert memory["boundary_day"] == csv["boundary_day"] == 280
    assert memory["periods"] == csv["periods"]
    dates = [[line.split(",")[0] for line in (tmp_path / out / "equity_equal_weight.csv")
              .read_text().split("\n")] for out in ("memory", "csv")]
    assert dates[0] == dates[1]


def test_unknown_variant_and_missing_checkpoint(tmp_path):
    assert main(["train", "--variant", "bogus", "--out", str(tmp_path)]) == 2
    assert main(["backtest", "--checkpoint", str(tmp_path / "nope.bin"),
                 "--out", str(tmp_path)]) == 2


def test_train_then_backtest_round_trip(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_RUN)
    train_out = tmp_path / "train"
    assert main(["train", "--config", cfg, "--out", str(train_out)]) == 0
    assert (train_out / "checkpoint.bin").is_file()
    log = (train_out / "training_log.csv").read_text().strip().split("\n")
    assert log[0] == "epoch,train_loss,val_loss,lr,clips,grad_norm"
    assert len(log) == 2        # one epoch
    clips, grad_norm = log[1].split(",")[4:]
    assert int(clips) >= 0 and float(grad_norm) > 0.0

    bt_out = tmp_path / "bt"
    assert main(["backtest", "--config", cfg, "--out", str(bt_out),
                 "--checkpoint", str(train_out / "checkpoint.bin")]) == 0
    summary = json.loads((bt_out / "metrics.json").read_text())
    assert set(summary["strategies"]) == {
        "CRISP", "Equal Weight", "Mean-Variance", "Risk Parity"}
    for entry in summary["strategies"].values():
        assert set(entry) >= {"sharpe", "sortino", "max_drawdown",
                              "infeasible_periods"}
        assert len(entry["fallback_texts"]) == entry["fallback_events"]
    assert summary["periods"] * 5 == summary["test_days"]
    # 160 days hold no 252-day lookback: every mean-variance period says so
    mv_texts = summary["strategies"]["Mean-Variance"]["fallback_texts"]
    assert len(mv_texts) == summary["periods"]
    assert all(text.endswith("days < 252-day lookback, equal weight used")
               for text in mv_texts)
    assert summary["strategies"]["Equal Weight"]["fallback_texts"] == []
    assert (bt_out / "equity_crisp.csv").is_file()
    assert (bt_out / "weights_equal_weight.csv").is_file()
    assert (bt_out / "attention_crisp.csv").is_file()
    report = json.loads((bt_out / "attention_summary_crisp.json").read_text())
    assert 0.0 <= report["defensive_share"] <= 1.0
    capsys.readouterr()


def test_backtest_echoes_only_the_sections_it_reads(tmp_path, capsys):
    def sections(echoed):
        return [line for line in echoed.read_text().splitlines() if line.startswith("[")]

    # train and ablate never read [backtest]: ablate's Random Selection row is
    # seeded by [train] seed, so a [backtest] random_seed would do nothing
    seeded = write(tmp_path, SMALL_RUN + "\n[backtest]\nrandom_seed = 5\n", name="seeded.ini")
    for command, extra, artifact in (("train", [], "checkpoint.bin"),
                                     ("ablate", ["--only", "Random Selection"], "ablation.csv")):
        first, again = tmp_path / command, tmp_path / f"{command}_again"
        assert main([command, "--config", seeded, "--out", str(first), *extra]) == 0
        echoed = first / "resolved_config.ini"
        assert sections(echoed) == ["[data]", "[synthetic]", "[model]", "[train]", "[loss]"]
        assert main([command, "--config", str(echoed), "--out", str(again), *extra]) == 0
        assert (again / artifact).read_bytes() == (first / artifact).read_bytes()

    ck = str(tmp_path / "train" / "checkpoint.bin")
    # the CRISP row runs the checkpoint's 4-head learned-graph model, not this
    other = write(tmp_path, SMALL_RUN + "\n[model]\ngat_heads = 1\nstatic_graph = true\n",
                  name="other.ini")
    first, again = tmp_path / "bt", tmp_path / "again"
    assert main(["backtest", "--config", other, "--out", str(first), "--checkpoint", ck]) == 0
    echoed = first / "resolved_config.ini"
    assert sections(echoed) == ["[data]", "[synthetic]", "[backtest]"]
    assert main(["backtest", "--config", str(echoed), "--out", str(again),
                 "--checkpoint", ck]) == 0
    assert (again / "metrics.json").read_bytes() == (first / "metrics.json").read_bytes()
    capsys.readouterr()


def test_backtest_rejects_universe_with_other_asset_count(tmp_path, capsys, book):
    cfg = write(tmp_path, SMALL_RUN)
    train_out = tmp_path / "train"
    assert main(["train", "--config", cfg, "--out", str(train_out)]) == 0
    # the packaged roster without its last ticker
    twelve = tmp_path / "twelve.csv"
    twelve.write_text("ticker,sector,region\n" + "".join(
        f"{t},{book.sector_map[t]},{book.region_map[t]}\n" for t in book.tickers()[:12]))
    cfg12 = write(tmp_path, SMALL_RUN.replace("[data]\n", f"[data]\nuniverse_file = {twelve}\n"),
                  name="twelve.ini")
    capsys.readouterr()
    assert main(["backtest", "--config", cfg12, "--out", str(tmp_path / "bt"),
                 "--checkpoint", str(train_out / "checkpoint.bin")]) == 1
    assert "model built for 13 assets, got 12" in capsys.readouterr().err


def test_ablate_only_random_selection(tmp_path, capsys):
    cfg = write(tmp_path, SMALL_RUN)
    out = tmp_path / "ab"
    assert main(["ablate", "--config", cfg, "--out", str(out),
                 "--only", "Random Selection"]) == 0
    table = (out / "ablation.csv").read_text().strip().split("\n")
    assert len(table) == 2
    assert table[1].startswith('"Random Selection",')
    assert main(["ablate", "--only", "Nonsense", "--out", str(out)]) == 2
    capsys.readouterr()
