"""Config parsing, subcommand exports, exit codes, manifest discipline."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

import wealthsim
from wealthsim import analytics, backends, cli, engine, stationary, stats
from wealthsim.errors import NotConverged, ParameterError, ParseError
from wealthsim.params import Mode, ModelParams
from wealthsim.tableio import read_table

BASE = """
n_agents = 60
beta = 0.06
mode = reset            # daily renormalization
t_max = 400
seed = 11
n_runs = 2
series_stride = 50
snapshot_count = 6
window_start = 100
window_end = 300
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- parsing ----------------------------------------------------------------


def test_parse_minimal_config_applies_defaults():
    cfg = cli.parse_config("n_agents=50\nbeta=0.06\nmode=free\nt_max=100\nseed=3\n")
    assert cfg.n_agents == 50
    assert cfg.epsilon == 0.0
    assert cfg.n_runs == 1
    assert cfg.k_list == cli.DEFAULT_K_LIST
    assert cfg.epsilon_sweep == cli.DEFAULT_EPSILON_SWEEP
    assert cfg.out_dir == "out"
    assert cfg.export_flux is True


def test_config_text_round_trip():
    cfg = cli.parse_config(BASE)
    assert cli.parse_config(cfg.to_text()) == cfg


def test_round_trip_preserves_awkward_floats():
    text = BASE + "epsilon = -0.014999999999999999\nbeta = 0.059999999999999998\n"
    # beta duplicated: build from scratch instead
    text = ("n_agents = 60\nbeta = 0.059999999999999998\nmode = skewed\n"
            "t_max = 400\nseed = 11\nepsilon = -0.014999999999999999\n"
            "k_list = 0.01, 1024.0\n")
    cfg = cli.parse_config(text)
    assert cli.parse_config(cfg.to_text()) == cfg


def test_empty_config_lists_every_required_key():
    with pytest.raises(ParseError) as ei:
        cli.parse_config("")
    msgs = "\n".join(ei.value.problems)
    for key in ("n_agents", "beta", "mode", "t_max", "seed"):
        assert f"missing required key '{key}'" in msgs


def test_invariant_violation_cites_line_and_bound():
    text = "n_agents = 60\nbeta = 1.5\nmode = free\nt_max = 100\nseed = 1\n"
    with pytest.raises(ParseError) as ei:
        cli.parse_config(text)
    [msg] = ei.value.problems
    assert msg.startswith("line 2:")
    assert "beta" in msg and "1.5" in msg
    assert "[0, 1)" in msg  # states the legal range, not just a rejection


def test_all_violations_collected_together():
    text = ("n_agents = sixty\n"      # type error
            "betta = 0.06\n"          # unknown key
            "mode = free\n"
            "mode = reset\n"          # duplicate
            "just a line\n"           # malformed
            "t_max = 100\n")
    with pytest.raises(ParseError) as ei:
        cli.parse_config(text)
    msgs = ei.value.problems
    assert any("line 1" in m and "n_agents" in m for m in msgs)
    assert any("line 2" in m and "unknown key 'betta'" in m for m in msgs)
    assert any("line 4" in m and "duplicate key 'mode'" in m
               and "line 3" in m for m in msgs)
    assert any("line 5" in m and "key = value" in m for m in msgs)
    assert any("missing required key 'seed'" in m for m in msgs)
    assert any("missing required key 'beta'" in m for m in msgs)
    # n_agents appeared (with a bad value): reported once, not also as missing
    assert not any("missing required key 'n_agents'" in m for m in msgs)
    assert len(msgs) == 6


def test_parse_error_is_a_parameter_error_with_one_problem_per_line():
    exc = ParseError(["line 1: a", "line 2: b"])
    assert isinstance(exc, ParameterError)
    assert exc.problems == ["line 1: a", "line 2: b"]
    assert str(exc) == "line 1: a\nline 2: b"
    assert ParseError("line 3: c").problems == ["line 3: c"]


def test_bool_and_list_values():
    cfg = cli.parse_config(BASE + "export_flux = no\nk_list = 1, 2.5 , 16\n")
    assert cfg.export_flux is False
    assert cfg.k_list == (1.0, 2.5, 16.0)
    with pytest.raises(ParseError) as ei:
        cli.parse_config(BASE + "export_flux = maybe\n")
    assert any("not a boolean" in m for m in ei.value.problems)
    with pytest.raises(ParseError) as ei:
        cli.parse_config(BASE + "k_list = ,\n")
    assert any("empty list" in m for m in ei.value.problems)


def test_inverted_window_rejected():
    text = BASE.replace("window_start = 100", "window_start = 300") \
               .replace("window_end = 300", "window_end = 100")
    with pytest.raises(ParseError) as ei:
        cli.parse_config(text)
    assert any("window_start/window_end" in m for m in ei.value.problems)


@pytest.mark.parametrize(
    "extra, needle",
    [
        ("workers = 0\n", "workers"),
        ("n_modes = 0\n", "n_modes"),
        ("grid_points = 1\n", "grid_points"),
        ("series_stride = 0\n", "series_stride"),
        ("snapshot_count = 0\n", "snapshot_count"),
        ("hist_bins_per_decade = 0\n", "hist_bins_per_decade"),
        ("k_list = 0.5, -1\n", "k_list"),
        ("epsilon_sweep = -0.5, 1.5\n", "epsilon_sweep"),
        # each entry names its own file: a repeat would be written twice
        ("k_list = 1.0, 1\n", "line 12: k_list entries must be distinct"),
        ("epsilon_sweep = -0.03, -0.03\n", "line 12: epsilon_sweep entries must be distinct"),
    ],
)
def test_config_validation_failures(extra, needle):
    # the key replaces BASE's own line, if it has one, so that the value's
    # check runs rather than the duplicate-key one
    key = extra.partition("=")[0].strip()
    text = "".join(line for line in BASE.splitlines(keepends=True)
                   if line.partition("=")[0].strip() != key)
    with pytest.raises(ParseError) as ei:
        cli.parse_config(text + extra)
    assert any(needle in m for m in ei.value.problems)
    assert not any("duplicate key" in m for m in ei.value.problems)


@pytest.mark.parametrize("tail, line", [
    ("n_modes = 0\n", 6),                                   # not 'mode'
    ("epsilon = -0.01\nepsilon_sweep = -0.5, 1.5\n", 7),    # not 'epsilon'
])
def test_violation_cites_the_line_of_the_whole_key(tail, line):
    head = "n_agents = 60\nbeta = 0.06\nmode = skewed\nt_max = 100\nseed = 1\n"
    with pytest.raises(ParseError) as ei:
        cli.parse_config(head + tail)
    [msg] = ei.value.problems
    assert msg.startswith(f"line {line}: ")


def test_config_validates_itself_on_construction():
    with pytest.raises(ParameterError) as ei:
        cli.ExperimentConfig(n_agents=60, beta=1.5, mode="reset", t_max=400,
                             seed=11, workers=0)
    [beta, workers] = ei.value.problems
    assert "beta" in beta and "1.5" in beta
    assert "workers" in workers
    valid = cli.parse_config(BASE)
    with pytest.raises(ParameterError, match="n_runs"):
        dataclasses.replace(valid, n_runs=0)


def test_config_accepts_the_mode_enum():
    cfg = cli.ExperimentConfig(n_agents=60, beta=0.06, mode=Mode.RESET,
                               t_max=400, seed=11)
    assert cfg.mode is Mode.RESET
    assert dataclasses.replace(cfg, mode=Mode.FREE).mode is Mode.FREE


def test_params_hash_covers_physics_only():
    cfg = cli.parse_config(BASE)
    same = cli.parse_config(BASE + ("workers = 4\nout_dir = elsewhere\n"
                                    "export_flux = false\nexport_snapshots = false\n"
                                    "export_histograms = false\n"
                                    "compare_histogram = some.csv\n"))
    assert cfg.params_hash() == same.params_hash()
    assert cli.parse_config(BASE.replace("t_max = 400", "t_max = 500")).params_hash() \
        != cfg.params_hash()
    assert cli.parse_config(BASE.replace("seed = 11", "seed = 12")).params_hash() \
        != cfg.params_hash()
    assert len(cfg.params_hash()) == 12


def test_mode_spelling_does_not_change_the_hash():
    lower = cli.parse_config(BASE)
    upper = cli.parse_config(BASE.replace("mode = reset", "mode = Reset"))
    assert upper.mode is Mode.RESET
    assert upper == lower
    assert upper.params_hash() == lower.params_hash()
    assert upper.to_text() == lower.to_text()


# the schema is ExperimentConfig's fields: every one must parse, format,
# hash and reach the model without further plumbing
SKEWED = cli.parse_config(BASE.replace("mode = reset", "mode = skewed"))
FIELDS = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
EXECUTION_KEYS = {"workers", "out_dir", "export_snapshots", "export_histograms",
                  "export_flux", "compare_histogram"}


def changed(cfg, name):
    """``cfg`` with field ``name`` set to another valid value."""
    value = getattr(cfg, name)
    if name == "mode":
        new = "reset"
    elif isinstance(value, bool):
        new = not value
    elif isinstance(value, int):
        new = value + 1
    elif isinstance(value, float):
        new = value * 1.1 + 0.1
    elif isinstance(value, str):
        new = value + "x"
    else:
        new = value + (0.5,)
    return dataclasses.replace(cfg, **{name: new})


@pytest.mark.parametrize("name", FIELDS)
def test_every_field_round_trips(name):
    cfg = changed(SKEWED, name)
    assert cfg != SKEWED
    assert cli.parse_config(cfg.to_text()) == cfg


@pytest.mark.parametrize("name", FIELDS)
def test_params_hash_covers_every_field_but_execution_keys(name):
    moved = changed(SKEWED, name).params_hash() != SKEWED.params_hash()
    assert moved == (name not in EXECUTION_KEYS)


def test_params_hash_is_pinned():
    # the hashed text follows the field order, which inheritance from
    # ModelParams now decides: a reordering would rename every export's hash
    assert cli.parse_config(BASE).params_hash() == "f4b478bc1634"
    assert SKEWED.params_hash() == "ffaf928aa897"


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(ModelParams)])
def test_model_params_carries_every_model_field(name):
    # each model key is ModelParams' own field, inherited and not restated
    assert cli.ExperimentConfig.__dataclass_fields__[name] \
        is ModelParams.__dataclass_fields__[name]
    assert getattr(changed(SKEWED, name), name) != getattr(SKEWED, name)


@pytest.mark.parametrize("value", ["runs/#3", "runs\n3", " runs", "runs\t"])
def test_to_text_refuses_a_string_parsing_would_change(value):
    cfg = dataclasses.replace(SKEWED, out_dir=value)
    with pytest.raises(ValueError):
        cfg.to_text()


# --- exit codes -------------------------------------------------------------


def test_missing_config_file_is_io_error(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 4
    assert "cannot read config" in capsys.readouterr().err


def test_config_with_byte_order_mark_is_read(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_text(BASE.lstrip() + "k_list = 0.25, 1\n", encoding="utf-8-sig")
    assert cli.main(["analytic", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 0


def test_bad_config_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE.replace("beta = 0.06", "beta = 1.5"))
    rc = cli.main(["simulate", "--config", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "beta" in err and "1.5" in err


def test_bad_override_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE)
    rc = cli.main(["simulate", "--config", path, "--runs", "0",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "n_runs" in capsys.readouterr().err


def test_seed_override_outside_64_bits_exits_2(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE)
    rc = cli.main(["simulate", "--config", path, "--seed", "-1",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_repeated_k_exits_2_and_writes_nothing(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE + "k_list = 1.0, 1\n")
    rc = cli.main(["analytic", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "k_list entries must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_io_error_during_a_command_exits_4(tmp_path, capsys):
    path = write_cfg(tmp_path, BASE + "k_list = 1\n")
    (tmp_path / "file").write_text("", encoding="utf-8")
    rc = cli.main(["analytic", "--config", path, "--out", str(tmp_path / "file" / "o")])
    assert rc == 4
    assert "I/O error" in capsys.readouterr().err


@pytest.mark.parametrize("k_list, named", [
    pytest.param(None, "256.0, 1024.0", id="default-k_list"),
    pytest.param("1, 120", "120.0", id="k-equal-to-2-n_agents"),
])
def test_analytic_k_outside_the_envelope_domain_exits_2(tmp_path, capsys, k_list, named):
    # k / n_agents must lie below 2; the default k_list reaches 1024 and n_agents is 60
    path = write_cfg(tmp_path, BASE + (f"k_list = {k_list}\n" if k_list else ""))
    rc = cli.main(["analytic", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "k_list" in err and f"got {named}" in err
    assert not (tmp_path / "o").exists()  # failed command leaves nothing behind
    # simulate does not read k_list, so the same config runs
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "s")]) == 0


@pytest.mark.parametrize("command", ["analytic", "stationary"])
def test_beta_zero_exits_2_naming_beta(tmp_path, capsys, command):
    # beta = 0 leaves no diffusion envelope and no multiplier band
    path = write_cfg(tmp_path, BASE.replace("beta = 0.06", "beta = 0.0"))
    rc = cli.main([command, "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"beta must lie in (0, 1) for {command}" in err
    assert err.rstrip().endswith("got 0.0")
    assert not (tmp_path / "o").exists()
    # simulate runs it as the static case
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "s")]) == 0


def test_grid_too_coarse_for_the_band_exits_2_naming_both_keys(tmp_path, capsys):
    # at beta = 0.06 the band spans 3 cells of a 600-point grid over 12 decades
    path = write_cfg(tmp_path, BASE + "grid_points = 600\n")
    rc = cli.main(["stationary", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "grid_points = 600 with beta = 0.06" in err
    assert "multiplier band spans 3 cells; need >= 10" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("t_max, start, end", [
    pytest.param(30, 150, 450, id="window-after-t_max"),
    pytest.param(400, 101, 149, id="window-between-ticks"),
])
def test_window_without_a_stride_tick_exits_2(tmp_path, capsys, t_max, start, end):
    # stride ticks are multiples of series_stride = 50 in [0, t_max]
    text = (BASE.replace("t_max = 400", f"t_max = {t_max}")
                .replace("window_start = 100", f"window_start = {start}")
                .replace("window_end = 300", f"window_end = {end}"))
    path = write_cfg(tmp_path, text)
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "window_start/window_end" in err
    assert f"[{start}, {end})" in err
    assert not (tmp_path / "o").exists()
    # correlate records no windowed histogram, so the same config runs
    assert cli.main(["correlate", "--config", path, "--out", str(tmp_path / "c")]) == 0


def test_window_holding_only_its_last_tick_runs(tmp_path):
    # [101, 151) holds the tick 150, and [351, 999) the tick 400 = t_max
    for start, end in ((101, 151), (351, 999)):
        text = (BASE.replace("window_start = 100", f"window_start = {start}")
                    .replace("window_end = 300", f"window_end = {end}"))
        out = tmp_path / f"o{start}"
        assert cli.main(["simulate", "--config", write_cfg(tmp_path, text),
                         "--out", str(out)]) == 0
        hist = cli.read_histogram(str(out / "window_hist_run00.csv"))
        assert hist.counts.sum() == 60  # one tick of 60 agents


# --- every subcommand on small configs --------------------------------------


@hyp.composite
def small_configs(draw):
    """The text of a small config: every mode, and every key a subcommand
    reads drawn over ranges that run all four subcommands in about a second."""
    mode = draw(hyp.sampled_from(Mode))
    start = draw(hyp.integers(0, 200))
    window = draw(hyp.sampled_from([(0, 0), (start, start + draw(hyp.integers(1, 200)))]))
    values = {
        "n_agents": draw(hyp.integers(1, 64)),
        "beta": draw(hyp.floats(0.0, 0.99)),  # 0 included
        "mode": mode.value,
        "epsilon": draw(hyp.floats(-0.99, 0.99)) if mode is Mode.SKEWED else 0.0,
        "t_max": draw(hyp.integers(1, 200)),
        "seed": draw(hyp.integers(0, 2**64 - 1)),
        "n_runs": draw(hyp.integers(1, 3)),
        "series_stride": draw(hyp.integers(1, 250)),
        "snapshot_count": draw(hyp.integers(1, 20)),
        "hist_bins_per_decade": draw(hyp.integers(1, 20)),
        "window_start": window[0],
        "window_end": window[1],
        "workers": draw(hyp.integers(1, 2)),
        "k_list": draw(hyp.lists(hyp.floats(0.01, 200.0), min_size=1, max_size=4,
                                 unique=True)),
        "epsilon_sweep": draw(hyp.lists(hyp.floats(-0.99, 0.99), min_size=1, max_size=4,
                                        unique=True)),
        "grid_points": draw(hyp.integers(2, 400)),
        "n_modes": draw(hyp.integers(1, 5)),
    }
    return "".join(f"{key} = {', '.join(map(repr, v)) if isinstance(v, list) else v}\n"
                   for key, v in values.items())


@settings(max_examples=40, deadline=None)
@given(text=small_configs())
def test_every_subcommand_runs_or_refuses_naming_a_key(text):
    # a fresh directory per example: Hypothesis refuses tmp_path under @given
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in cli._COMMANDS:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([command, "--config", path, "--out", os.path.join(tmp, command)])
            named = set(cli._CODECS) & set(re.findall(r"\w+", err.getvalue()))
            assert rc == 0 or (rc == 2 and named), \
                f"{command} exited {rc} on\n{text}{err.getvalue()}"


# --- simulate ---------------------------------------------------------------


@pytest.fixture()
def sim_dir(tmp_path):
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "sim"
    rc = cli.main(["simulate", "--config", path, "--out", str(out)])
    assert rc == 0
    return out


def test_simulate_manifest_is_complete(sim_dir):
    with open(sim_dir / "manifest.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    listed = {e["path"] for e in doc["files"]}
    on_disk = set(os.listdir(sim_dir)) - {"manifest.json"}
    assert listed == on_disk
    kinds = {e["kind"] for e in doc["files"]}
    assert kinds <= {"series", "histogram", "matrix", "eigenmode", "quantile-curve"}
    for entry in doc["files"]:
        assert set(entry) == {"path", "kind", "params_hash", "seed"}
        assert entry["params_hash"] == doc["params_hash"]
    # two runs x (series, ranks, snapshots, hist, window_hist, flux)
    assert len(doc["files"]) == 12


def test_simulate_exports_match_engine_output(sim_dir, tmp_path):
    cfg = cli.parse_config(BASE)
    records = engine.run(cfg, cfg.schedule(), workers=1)
    rec = records[1]
    meta, header, cols = read_table(sim_dir / "series_run01.csv")
    assert meta["params_hash"] == cfg.params_hash()
    assert header == ["t", "mean_wealth", "max_wealth", "gini"]
    np.testing.assert_array_equal(cols["t"], rec.series_times)
    np.testing.assert_array_equal(cols["mean_wealth"], rec.mean_series)
    np.testing.assert_array_equal(cols["max_wealth"], rec.max_series)
    np.testing.assert_array_equal(cols["gini"], rec.gini_series)

    _, rheader, rcols = read_table(sim_dir / "ranks_run01.csv")
    assert rheader[0] == "t"
    assert rheader[1:] == [f"rank_{int(k)}" for k in rec.rank_ids]
    for i, name in enumerate(rheader[1:]):
        np.testing.assert_array_equal(rcols[name], rec.rank_series[i])

    _, sheader, scols = read_table(sim_dir / "snapshots_run01.csv")
    np.testing.assert_array_equal(scols["rank"], np.arange(1, 61))
    for t, snap in zip(rec.snapshot_times, rec.sorted_snapshots):
        np.testing.assert_array_equal(scols[f"t{int(t)}"], snap)


def test_window_histogram_round_trip(sim_dir):
    cfg = cli.parse_config(BASE)
    records = engine.run(cfg, cfg.schedule(), workers=1)
    hist = records[0].histogram
    back = cli.read_histogram(str(sim_dir / "window_hist_run00.csv"))
    np.testing.assert_allclose(back.bin_edges, hist.bin_edges, rtol=0, atol=0)
    np.testing.assert_array_equal(back.counts, hist.counts)
    assert back.window == (100, 300)
    # four stride ticks (100..250) fall inside the window
    assert back.counts.sum() == 4 * 60


def test_read_histogram_rejects_missing_columns(tmp_path):
    bad = tmp_path / "h.csv"
    bad.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ParseError):
        cli.read_histogram(str(bad))


def test_reruns_are_byte_identical_serial_and_parallel(tmp_path):
    cfg_serial = write_cfg(tmp_path, BASE, "serial.cfg")
    cfg_par = write_cfg(tmp_path, BASE + "workers = 3\n", "par.cfg")
    for command in ("simulate", "correlate"):
        dirs = [tmp_path / command / d for d in ("a", "b", "c")]
        assert cli.main([command, "--config", cfg_serial, "--out", str(dirs[0])]) == 0
        assert cli.main([command, "--config", cfg_serial, "--out", str(dirs[1])]) == 0
        assert cli.main([command, "--config", cfg_par, "--out", str(dirs[2])]) == 0
        names = sorted(os.listdir(dirs[0]))
        assert sorted(os.listdir(dirs[1])) == names
        assert sorted(os.listdir(dirs[2])) == names
        for name in names:
            ref = (dirs[0] / name).read_bytes()
            assert (dirs[1] / name).read_bytes() == ref, f"{command}: {name} differs on rerun"
            assert (dirs[2] / name).read_bytes() == ref, f"{command}: {name} differs in parallel"


SNAPSHOTS_OFF = "export_snapshots = false\nexport_histograms = false\n"


@pytest.mark.parametrize("command, extra, snapshot_stops", [
    pytest.param("correlate", "", False, id="correlate"),
    pytest.param("simulate", SNAPSHOTS_OFF, False, id="simulate-snapshot-exports-off"),
    pytest.param("simulate", "", True, id="simulate-snapshot-exports-on"),
    pytest.param("simulate", "export_snapshots = false\n", True, id="simulate-histograms-on"),
    pytest.param("simulate", "export_histograms = false\n", True, id="simulate-snapshots-on"),
])
def test_kernel_stops_at_snapshot_days_only_when_an_export_reads_them(
        tmp_path, monkeypatch, command, extra, snapshot_stops):
    stops = []
    advance = backends.advance

    def recorder(excess, key, run, t0, n_days, beta, epsilon, w1, skewed, coupled,
                 target_total, block_stops=None, out=None):
        stops.extend(np.asarray(block_stops).tolist())
        return advance(excess, key, run, t0, n_days, beta, epsilon, w1, skewed, coupled,
                       target_total, block_stops, out)

    monkeypatch.setattr(engine.backends, "advance", recorder)
    path = write_cfg(tmp_path, BASE + extra)
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 0
    ticks = set(range(0, 401, 50))  # t_max = 400, series_stride = 50
    snapshot_days = set(engine.default_schedule(400, n_snapshots=6).snapshot_times)
    assert not snapshot_days <= ticks  # some snapshot days fall between ticks
    per_run = sorted(ticks | snapshot_days if snapshot_stops else ticks)
    assert sorted(stops) == sorted(per_run * 2)  # n_runs = 2


def test_snapshot_exports_off_leave_every_other_file_byte_identical(tmp_path, sim_dir):
    out = tmp_path / "off"
    path = write_cfg(tmp_path, BASE + SNAPSHOTS_OFF, "off.cfg")
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) == 0
    names = sorted(n for n in os.listdir(sim_dir)
                   if not n.startswith(("snapshots_", "hist_")))
    assert sorted(os.listdir(out)) == names
    assert len(names) == 9  # manifest.json + two runs x (series, ranks, window_hist, flux)
    for name in names:
        if name != "manifest.json":
            assert (out / name).read_bytes() == (sim_dir / name).read_bytes(), name
    with open(out / "manifest.json", encoding="utf-8") as fh:
        off = json.load(fh)
    with open(sim_dir / "manifest.json", encoding="utf-8") as fh:
        on = json.load(fh)
    assert off["params_hash"] == on["params_hash"]
    assert off["files"] == [e for e in on["files"] if e["path"] in names]


def test_seed_override_changes_outputs(tmp_path):
    path = write_cfg(tmp_path, BASE)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", path, "--out", str(a)]) == 0
    assert cli.main(["simulate", "--config", path, "--out", str(b),
                     "--seed", "99"]) == 0
    assert (a / "series_run00.csv").read_bytes() \
        != (b / "series_run00.csv").read_bytes()
    with open(b / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["seed"] == 99


def test_runs_override_changes_file_count(tmp_path):
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "one"
    assert cli.main(["simulate", "--config", path, "--out", str(out),
                     "--runs", "1"]) == 0
    assert not (out / "series_run01.csv").exists()
    assert (out / "series_run00.csv").exists()


# --- correlate --------------------------------------------------------------


def test_fewer_than_two_stride_ticks_export_no_flux(tmp_path, capsys):
    # t_max below series_stride: the only stride tick is t = 0
    path = write_cfg(tmp_path, BASE.replace("t_max = 400", "t_max = 40"))
    out = tmp_path / "co"
    assert cli.main(["correlate", "--config", path, "--out", str(out)]) == 0
    assert "run 0: fewer than two stride ticks, no flux matrix" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["divide_report.csv", "manifest.json"]
    _, _, cols = read_table(out / "divide_report.csv")
    assert np.isnan(cols["divide_rank"]).all() and np.isnan(cols["neg_frac_rank1"]).all()


def test_correlate_exports_flux_and_divide_report(tmp_path):
    path = write_cfg(tmp_path, BASE)
    out = tmp_path / "corr"
    assert cli.main(["correlate", "--config", path, "--out", str(out)]) == 0
    _, header, cols = read_table(out / "divide_report.csv")
    assert header == ["run", "divide_rank", "neg_frac_rank1"]
    np.testing.assert_array_equal(cols["run"], [0, 1])
    assert (out / "flux_run00.csv").exists()
    _, _, fcols = read_table(out / "flux_run01.csv")
    n = int(np.sqrt(fcols["raw"].size))
    assert n * n == fcols["raw"].size
    # matrix columns reproduce the in-memory flux matrix
    cfg = cli.parse_config(BASE)
    ticks = engine.RecordingSchedule(snapshot_times=(), series_stride=cfg.series_stride)
    rec = engine.run(cfg, ticks, workers=1)[1]
    fm = stats.flux_matrix(rec.rank_series, rec.rank_ids)
    np.testing.assert_array_equal(fcols["raw"], fm.A.ravel())
    np.testing.assert_array_equal(fcols["compressed"], fm.C.ravel())


def test_non_numeric_histogram_cell_is_a_config_error(tmp_path, capsys):
    hist = tmp_path / "h.csv"
    hist.write_text("bin_lo,bin_hi,count\n0.0,1.0,0\n1.0,abc,3\n2.0,inf,1\n",
                    encoding="utf-8")
    path = write_cfg(tmp_path, BASE + f"epsilon_sweep = -0.03\ncompare_histogram = {hist}\n")
    rc = cli.main(["stationary", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "'bin_hi'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", [
    pytest.param("bin_lo,bin_hi,count\n0.0,1.0,0\n1.0,3.0,3\n2.0,2.0,1\n3.0,inf,1\n",
                 id="bin-hi-not-increasing"),
    pytest.param("bin_lo,bin_hi,count\n0.0,1.0,0\n1.0,2.0,-3\n2.0,inf,1\n",
                 id="negative-count"),
    pytest.param("bin_lo,bin_hi,count\n0.0,1.0,0\n2.0,2.0,3\n1.0,inf,1\n",
                 id="bin-lo-not-increasing"),
    # a count of 1.5 is not truncated to 1
    pytest.param("bin_lo,bin_hi,count\n0.0,1.0,0\n1.0,2.0,1.5\n2.0,inf,1\n",
                 id="fractional-count"),
    # nor a window of [1.5, 300.7) to [1, 300)
    pytest.param("window_start,window_end,bin_lo,bin_hi,count\n"
                 "1.5,300.7,0.0,1.0,0\n1.5,300.7,1.0,2.0,3\n1.5,300.7,2.0,inf,1\n",
                 id="fractional-window"),
    # bin_hi 1, 5, 6 is not the upper bound of bins starting at 1, 2, 3
    pytest.param("bin_lo,bin_hi,count\n0.0,1.0,0\n1.0,5.0,3\n2.0,6.0,1\n3.0,inf,1\n",
                 id="bin-lo-disagrees-with-bin-hi"),
    # closed outer bins are not read as the under- and overflow
    pytest.param("bin_lo,bin_hi,count\n5.0,10.0,0\n10.0,20.0,3\n20.0,30.0,1\n",
                 id="outer-bins-not-open"),
    # the window is not taken from the first row alone
    pytest.param("window_start,window_end,bin_lo,bin_hi,count\n"
                 "1,300,0.0,1.0,0\n1,300,1.0,2.0,3\n1,301,2.0,inf,1\n",
                 id="window-differs-between-rows"),
])
def test_malformed_histogram_is_a_config_error_naming_its_file(tmp_path, capsys, text):
    hist = tmp_path / "h.csv"
    hist.write_text(text, encoding="utf-8")
    path = write_cfg(tmp_path, BASE + f"epsilon_sweep = -0.03\ncompare_histogram = {hist}\n")
    rc = cli.main(["stationary", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert str(hist) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# --- analytic ---------------------------------------------------------------


def test_analytic_exports_curves_and_report(tmp_path):
    text = BASE + "k_list = 0.25, 1, 4\n"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "an"
    assert cli.main(["analytic", "--config", path, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "analytic_report.csv", "manifest.json",
        "quantile_k0p25.csv", "quantile_k1p0.csv", "quantile_k4p0.csv",
    ]
    cfg = cli.parse_config(text)
    env = analytics.GaussianEnvelope(x0=math.log(600.0), beta=0.06, n_agents=60)
    t_grid = np.unique(np.rint(np.geomspace(1.0, 400, 75)).astype(np.int64))
    curve = analytics.quantile_curve(env, 1.0, t_grid)
    _, _, qcols = read_table(out / "quantile_k1p0.csv")
    np.testing.assert_array_equal(qcols["t"], t_grid)
    np.testing.assert_array_equal(qcols["log_excess"],
                                  np.array([x for _, x in curve.samples]))
    _, rheader, rcols = read_table(out / "analytic_report.csv")
    assert rheader == ["x0", "nu_drift", "sigma_250", "sigma_1000", "sigma_4000",
                       "peak_time_k1", "peak_height_k1"]
    assert all(c.shape == (1,) and c.dtype == np.float64 for c in rcols.values())
    assert rcols["x0"][0] == pytest.approx(math.log(600.0))
    assert rcols["nu_drift"][0] == pytest.approx(analytics.drift_velocity(0.06))
    assert rcols["sigma_1000"][0] == pytest.approx(analytics.sigma_t(0.06, 1000.0))
    assert rcols["peak_time_k1"][0] == pytest.approx(analytics.peak_time(env, 1.0))


# --- stationary -------------------------------------------------------------


def test_stationary_sweep_with_two_modes(tmp_path):
    text = BASE + "epsilon_sweep = -0.03\ngrid_points = 2400\nn_modes = 2\n"
    path = write_cfg(tmp_path, text)
    out = tmp_path / "st"
    assert cli.main(["stationary", "--config", path, "--out", str(out)]) == 0
    meta1, _, _ = read_table(out / "eigenmode_epsm0p03_m1.csv")
    meta2, _, m2 = read_table(out / "eigenmode_epsm0p03_m2.csv")
    assert meta1["units"] == "x=ln(excess currency), mass=probability per cell"
    # modes past the first are signed, unit-L1 vectors, not probabilities
    assert "probability" not in meta2["units"] and "unit L1 norm" in meta2["units"]
    assert np.abs(m2["mass"]).sum() == pytest.approx(1.0)
    _, header, cols = read_table(out / "stationary_report.csv")
    assert header == ["epsilon", "mode_index", "eigenvalue", "iterations",
                      "residual", "peak_x", "std_x", "boundary_piled", "tv"]
    lam1 = cols["eigenvalue"][cols["mode_index"] == 1.0][0]
    lam2 = cols["eigenvalue"][cols["mode_index"] == 2.0][0]
    assert lam2 < lam1
    assert 0.999 <= lam1 <= 1.0 + 1e-9
    assert cols["boundary_piled"][0] == 0.0
    assert np.isnan(cols["residual"][1])  # diagnostics are leading-mode only
    assert np.isnan(cols["tv"][0])  # no comparison histogram supplied


def test_stationary_not_converged_exits_3_naming_epsilon(tmp_path, capsys, monkeypatch):
    def not_converged(op, n_modes):
        raise NotConverged(5, 1e-3)
    monkeypatch.setattr(stationary, "leading_eigenpair", not_converged)
    path = write_cfg(tmp_path, BASE + "epsilon_sweep = -0.03\ngrid_points = 2400\n")
    rc = cli.main(["stationary", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "epsilon=-0.029999999999999999" in err and "NotConverged" in err
    assert not (tmp_path / "o").exists()


def test_stationary_mode_past_the_first_not_converged_exits_2(tmp_path, capsys, monkeypatch):
    # asking for fewer modes mends it, so it is a config error naming n_modes
    def not_converged(op, n_modes):
        raise NotConverged(5, 1e-3, mode=2)
    monkeypatch.setattr(stationary, "leading_eigenpair", not_converged)
    path = write_cfg(tmp_path, BASE + "epsilon_sweep = -0.03\ngrid_points = 2400\nn_modes = 2\n")
    rc = cli.main(["stationary", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "n_modes = 2: at epsilon = -0.03" in err
    assert "no convergence of mode 2 after 5 iterations" in err
    assert not (tmp_path / "o").exists()


def test_stationary_compare_histogram(tmp_path, sim_dir):
    text = (BASE + "epsilon_sweep = -0.03\ngrid_points = 2400\n"
            f"compare_histogram = {sim_dir / 'window_hist_run00.csv'}\n")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "stc"
    assert cli.main(["stationary", "--config", path, "--out", str(out)]) == 0
    _, _, cols = read_table(out / "stationary_report.csv")
    tv = cols["tv"][0]
    assert 0.0 <= tv <= 1.0 and not np.isnan(tv)


def child_env():
    """The environment for a child interpreter that imports this wealthsim."""
    env = dict(os.environ)
    package_parent = os.path.dirname(os.path.dirname(os.path.abspath(wealthsim.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p)
    return env


def test_stationary_solve_does_not_import_scipy(tmp_path):
    # scipy is a test-only extra: importing scipy.linalg would add ~20 MB
    # of peak RSS to every stationary run
    path = write_cfg(tmp_path, BASE + "epsilon_sweep = -0.03\ngrid_points = 2400\n")
    code = ("import sys, wealthsim.cli\n"
            f"assert wealthsim.cli.main(['stationary', '--config', {path!r}, "
            f"'--out', {str(tmp_path / 'st')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_start_up_imports_only_what_the_invocation_uses(tmp_path):
    # the process pool, the compiler driver, statistics and the stationary and
    # analytic modules load when a subcommand needs them; a serial simulate
    # never starts a pool
    deferred = ["multiprocessing", "concurrent.futures", "statistics",
                "wealthsim.stationary", "wealthsim.analytics"]
    if backends.compile_command == (backends._CC, *backends._NATIVE, *backends._CFLAGS):
        deferred.append("subprocess")  # the first build's library is cached
    path = write_cfg(tmp_path, BASE + "workers = 1\n")
    code = ("import sys, wealthsim.cli\n"
            f"print([m for m in {deferred!r} if m in sys.modules])\n"
            f"assert wealthsim.cli.main(['simulate', '--config', {path!r}, "
            f"'--out', {str(tmp_path / 'sim')!r}]) == 0\n"
            "print('multiprocessing' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("[]", "False")


def test_flux_export_does_not_depend_on_blas_threads(tmp_path):
    # a BLAS Gram matrix sums in an order set by OpenBLAS's thread count;
    # ~100 ranks x 500 ticks is large enough for OpenBLAS to split it
    path = write_cfg(tmp_path, "n_agents = 500\nbeta = 0.06\nmode = reset\n"
                               "t_max = 2500\nseed = 11\nseries_stride = 5\n"
                               "export_snapshots = false\nexport_histograms = false\n")
    exports = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        proc = subprocess.run([sys.executable, "-m", "wealthsim.cli", "simulate",
                               "--config", path, "--out", str(out)],
                              capture_output=True, text=True,
                              env={**child_env(), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        exports.append((out / "flux_run00.csv").read_bytes())
    assert exports[0] == exports[1]


# --- console entry point ----------------------------------------------------


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "wealthsim.cli", "--help"],
                          capture_output=True, text=True, env=child_env())
    # argparse prints help and exits 0
    assert proc.returncode == 0
    for sub in ("simulate", "analytic", "stationary", "correlate"):
        assert sub in proc.stdout
