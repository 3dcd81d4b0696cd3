"""Config parsing, recipes, sweeps, record serialization, and the CLI."""

import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from absorblab import ConfigError, ExperimentSpec, parse_config, run_experiment, sweep, write_records
from absorblab import cli, experiments
from absorblab.experiments import _RECIPES, _SHARED, RECIPE_NAMES


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli_runner(cwd, call):
    """`run(args, config=None)`: write `config`, if given, to cwd/exp.cfg, then run
    the CLI on `args` from cwd through `call`."""
    def run(args, config=None):
        if config is not None:
            (cwd / "exp.cfg").write_text(config)
        return call(args)
    return run


@pytest.fixture
def run_cli(tmp_path, monkeypatch, capsys):
    """The CLI run in-process: `cli.main(args)`, which `python -m absorblab.cli`
    runs, from tmp_path, with its exit code and output as a CompletedProcess.
    An uncaught exception fails the test."""
    monkeypatch.chdir(tmp_path)

    def call(args):
        code = cli.main(args)
        out, err = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, out, err)
    return _cli_runner(tmp_path, call)


@pytest.fixture
def run_module(tmp_path):
    """As `run_cli`, but through `python -m absorblab.cli` in a child interpreter."""
    # an absolute src path first, so the package resolves from any cwd
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, inherited])))
    return _cli_runner(tmp_path, lambda args: subprocess.run(
        [sys.executable, "-m", "absorblab.cli", *args],
        capture_output=True, text=True, cwd=tmp_path, env=env,
    ))


def strip_wall_time_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    idx = header.index("wall_time_s")
    out = []
    for line in lines:
        cells = line.split(",")
        del cells[idx]
        out.append(",".join(cells))
    return "\n".join(out)


# list values that broke or misled a run before the parse-time check: the
# first five crashed, fitted an order through one point, or exited 2
BAD_LISTS = [
    ("removability_sweep", "eps_list = 0.1"),
    ("convergence_order", "dt_list = 0.01"),
    ("convergence_order", "node_list = 101, 2.5"),
    ("dichotomy_probe", "windows = 1e-3, 1e-4"),
    ("mean_value_check", "epsilons = 1.5"),
    ("removability_sweep", "eps_list = 0.1, 0"),
    ("convergence_order", "dt_list = 0.01, -0.005"),
    ("convergence_order", "node_list = 101"),
    ("convergence_order", "node_list = 101, 2"),
    ("dichotomy_probe", "windows = 1e-3, 1e-4, 0"),
    ("mean_value_check", "epsilons = 0.1, 0"),
]
GOOD_LISTS = [
    ("removability_sweep", "eps_list = 0.1, 0.05"),
    ("convergence_order", "dt_list = 0.01, 0.005"),
    # 4 nodes is the smallest grid with an interior node outside the default mask_radius
    ("convergence_order", "node_list = 4, 101.0"),
    ("dichotomy_probe", "windows = 1e-3, 1e-4, 1e-5"),
    ("mean_value_check", "epsilons = 0.5"),
]


def config_text(recipe, *lines):
    pair = ["p = 2", "q = 2"] if "p" in _RECIPES[recipe].schema else []
    return "\n".join([f"experiment = {recipe}", *pair, *lines, ""])


# cross-field values that reached the runner and ended as an exit-2
# ValueError there (the repeated windows completed with a verdict), each
# with a fragment of the ConfigError message it now raises
BAD_CONFIGS = [
    ("dichotomy_probe", {"region_lo": 0.5, "region_hi": -0.5}, "region_lo must be below"),
    ("dichotomy_probe", {"region_lo": 0.2, "region_hi": 0.2}, "region_lo must be below"),
    ("dichotomy_probe", {"region_hi": 1.5}, "region_hi] must lie inside"),
    ("dichotomy_probe", {"region_lo": -1.5}, "region_hi] must lie inside"),
    ("trace_measurement", {"psi_center": 5.0}, "psi_center ± psi_width must lie inside"),
    ("trace_measurement", {"psi_center": -0.6}, "psi_center ± psi_width must lie inside"),
    ("trace_measurement", {"ic_width": 1.5}, "ic_width must not exceed extent"),
    ("dichotomy_probe", {"ic_width": 2.0}, "ic_width must not exceed extent"),
    ("removability_sweep", {"eps_list": [2.0, 0.1]}, "eps_list values must not exceed extent"),
    ("mean_value_check", {"center_x": 9.0}, "center_x ± rho must lie inside"),
    ("mean_value_check", {"center_x": -1.6}, "center_x ± rho must lie inside"),
    ("mean_value_check", {"center_t": 0.1}, "[center_t - rho^2, center_t] must lie between"),
    ("mean_value_check", {"center_t": 0.4}, "[center_t - rho^2, center_t] must lie between"),
    ("trace_measurement", {"t_min": 0.05}, "t_min must be below t_end"),
    ("trace_measurement", {"t_min": 0.1}, "t_min must be below t_end"),
    ("flat_validation", {"dt_min": 1e-3}, "dt_min must not exceed dt_init"),
    ("dichotomy_probe", {"windows": [1e-3, 1e-3, 1e-3]}, "windows must hold >= 3 distinct"),
    # disjoint supports: the runner divided by a zero target and crashed
    ("trace_measurement", {"psi_center": 0.85, "psi_width": 0.1}, "psi must overlap"),
    ("trace_measurement", {"psi_center": -0.6, "psi_width": 0.3}, "psi must overlap"),
    # one node or one snapshot short of the limits in AT_THE_LIMIT (h = 0.05, and
    # h = 0.1 on mean_value_check's default extent of 2); rho = 0.05 fails the outer
    # ball too, and at nodes = 401 the outer window
    ("dichotomy_probe", {"region_lo": 0.0, "region_hi": 0.0499}, "must hold at least 2 grid"),
    ("mean_value_check", {"rho": 0.05}, "must hold at least 2 grid nodes"),
    ("mean_value_check", {"center_x": 0.05, "rho": 0.5, "center_t": 0.35,
                          "epsilons": [0.1, 0.91], "n_snapshots": 120},
     "must hold at least 2 grid nodes"),
    ("mean_value_check", {"center_x": 0.05, "rho": 0.5, "center_t": 0.35,
                          "epsilons": [0.1, 0.9], "n_snapshots": 119},
     "must hold at least 2 output times"),
    ("mean_value_check", {"nodes": 401, "rho": 0.05}, "must hold at least 2 output times"),
    # numbers that are not finite: extent = inf ran with status "ok" and wrote nan
    # node coordinates, the next two ended as exit-2 ValueErrors, and an integer
    # past the float range in an uncaught OverflowError
    ("flat_validation", {"extent": math.inf}, "expected a finite number"),
    ("flat_validation", {"t_end": math.inf}, "expected a finite number"),
    ("removability_sweep", {"extent": math.inf}, "expected a finite number"),
    ("flat_validation", {"p": math.nan}, "expected a finite number"),
    ("convergence_order", {"dt_list": [0.01, math.nan]}, "expected a finite number"),
    ("flat_validation", {"extent": 10**400}, "expected a finite number"),
    # repeated ladder values: a RankWarning and an order fitted through one point,
    # a negative spatial order, and a "converging" verdict from two identical runs
    ("convergence_order", {"dt_list": [0.01, 0.01]}, "dt_list must hold >= 2 distinct values"),
    ("convergence_order", {"node_list": [101, 101]}, "node_list must hold >= 2 distinct integers"),
    ("removability_sweep", {"eps_list": [0.5, 0.5]}, "eps_list must hold >= 2 distinct values"),
    # a bump whose support holds no grid node (h = 2/39 at nodes = 40, no node at 0):
    # bump_function refused it in the runner
    ("removability_sweep", {"nodes": 40, "eps_list": [0.2, 0.01]},
     "every eps_list bump on ±eps must hold a grid node"),
    ("trace_measurement", {"nodes": 41, "psi_center": 0.025, "psi_width": 0.02},
     "and psi on psi_center ± psi_width must each hold a grid node"),
    ("dichotomy_probe", {"nodes": 40, "ic_width": 0.02},
     "the initial bump on ±ic_width must hold a grid node"),
    ("trace_measurement", {"nodes": 40, "ic_width": 0.02},
     "the initial bump on ±ic_width and psi"),
    # the temporal probe evaluated the flat solution at t_ref - dt <= 0
    ("convergence_order", {"t_ref": 0.01}, "dt_list values must be below t_ref"),
    # a mask that keeps no interior node: a max over a zero-size array, on every
    # grid at mask_radius = 1.5, and at the default 0.2 on a 3-node grid, whose one
    # interior node is 0
    ("convergence_order", {"mask_radius": 1.5}, "mask_radius must leave an interior node"),
    ("convergence_order", {"node_list": [3, 101]}, "mask_radius must leave an interior node"),
    # geomspace(1.02 t_start, t_end) falls: output times not strictly increasing
    ("flat_validation", {"t_end": 0.102}, "t_end must exceed 1.02 t_start"),
    ("blowup_fit", {"t_end": 0.1015}, "t_end must exceed 1.02 t_start"),
    # a mask that keeps the node x = 0 of an odd grid, or a neighbour whose stencil
    # reads its floored profile: status ok with residuals of 3.6e49 and order 8e-15,
    # 1.5e28 on every grid and order -2.0, and 1.5e28 on the 101-node grid and order 34.5
    ("convergence_order", {"mask_radius": 1e-10}, "keep x = 0 and its neighbours out"),
    ("convergence_order", {"mask_radius": 0.004}, "keep x = 0 and its neighbours out"),
    ("convergence_order", {"mask_radius": 0.02}, "keep x = 0 and its neighbours out"),
    # the flat solution exists only for pq > 1: a ValueError in the runner, exit 2
    ("flat_validation", {"q": 0.25}, "this recipe requires pq > 1"),
]
BAD_CONFIG_IDS = [f"{name}-{'-'.join(extra)}-{i}" for i, (name, extra, _) in enumerate(BAD_CONFIGS)]

# each rule at its limit, where it still accepts, and a run that completes there
AT_THE_LIMIT = [
    ("dichotomy_probe", {"region_lo": -1.0, "region_hi": 1.0, "ic_width": 1.0, "t_end": 0.01}),
    ("trace_measurement", {"psi_center": 0.5, "psi_width": 0.5, "ic_width": 1.0,
                           "t_min": 0.049}),
    ("removability_sweep", {"eps_list": [1.0, 0.5], "t_probe": 1e-3}),
    ("mean_value_check", {"center_x": -1.55, "rho": 0.45, "center_t": 0.35}),
    ("flat_validation", {"dt_min": 1e-4, "t_end": 0.2, "n_snapshots": 4}),
    # psi and the bump overlap on (0.28, 0.3), which holds the node 0.29
    ("trace_measurement", {"nodes": 201, "psi_center": 0.58, "psi_width": 0.3,
                           "ic_width": 0.3}),
    # exactly 2 nodes: the region [0, h], and the innermost ball 0.05 ± 0.05 with
    # exactly 2 snapshots in its window, 0.35 - 0.05^2 and 0.35
    ("dichotomy_probe", {"region_lo": 0.0, "region_hi": 0.05, "t_end": 0.01}),
    ("mean_value_check", {"center_x": 0.05, "rho": 0.5, "center_t": 0.35,
                          "epsilons": [0.1, 0.9], "n_snapshots": 120}),
    # one node inside a bump, at nodes = 41 (h = 0.05): the node 0 for the centered
    # bumps of width 0.01 and 0.02, and 0.05 for psi on 0.03 ± 0.021
    ("removability_sweep", {"eps_list": [0.2, 0.01], "t_probe": 1e-3}),
    ("dichotomy_probe", {"ic_width": 0.02, "t_end": 0.01}),
    ("trace_measurement", {"ic_width": 0.02}),
    ("trace_measurement", {"psi_center": 0.03, "psi_width": 0.021}),
    # the largest dt just below t_ref, and a mask that keeps only x = ±0.98 on the
    # coarsest grid of node_list (101, h = 0.02)
    ("convergence_order", {"t_ref": 0.0101, "mask_radius": 0.98}),
    # the mask just past the neighbours of x = 0 on the coarsest grid (h = 0.02)
    ("convergence_order", {"mask_radius": 0.0201}),
    ("flat_validation", {"t_end": 0.1021, "n_snapshots": 4}),
    ("blowup_fit", {"t_end": 0.1021}),
]

# every config that the defaults, the demos and perfbench run
IN_USE = [
    (name, {"p": 2, "q": 3} if "p" in _RECIPES[name].schema else {}) for name in RECIPE_NAMES
] + [
    ("flat_validation", {"p": 2, "q": 2}),
    ("convergence_order", {"p": 2, "q": 2}),
    ("blowup_fit", {"p": 2, "q": 2}),
    ("blowup_fit", {"p": 3, "q": 2}),
    *[("estimate_saturation", {"p": 2, "q": 2, "m": m}) for m in (10.0, 100.0, 1e3, 1e4)],
    ("trace_measurement", {"p": 2, "q": 2}),
    ("dichotomy_probe", {"p": 3, "q": 3, "ic_width": 0.4}),
    ("dichotomy_probe", {"p": 3, "q": 3, "ic_width": 0.025}),
    ("removability_sweep", {"p": 3, "q": 3}),
    ("removability_sweep", {"p": 1.5, "q": 1.5}),
]


def with_pair(name, params):
    pair = {"p": 2.0, "q": 2.0} if "p" in _RECIPES[name].schema else {}
    return {**pair, "nodes": 41, **params}


def text_of(name, params):
    lines = [f"experiment = {name}"]
    for key, value in params.items():
        lines.append(f"{key} = {', '.join(map(str, value)) if isinstance(value, list) else value}")
    return "\n".join(lines) + "\n"


class TestParseConfig:
    def test_minimal_flat_validation_defaults(self):
        spec = parse_config("experiment = flat_validation\np = 2\nq = 2\n")
        assert spec.name == "flat_validation"
        assert spec.parameters["nodes"] == 401
        assert spec.parameters["t_start"] == 0.1
        assert spec.parameters["t_end"] == 1.0
        assert spec.seed == 0

    def test_colon_separator_accepted(self):
        spec = parse_config("experiment: flat_validation\np: 2\nq: 2\n")
        assert spec.parameters["p"] == 2.0

    def test_unknown_recipe_named_in_error(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config("experiment = frobnicate\n")

    def test_list_as_recipe_name_rejected(self):
        # a list value is unhashable: the recipe lookup used to raise TypeError
        with pytest.raises(ConfigError, match="line 1: unknown experiment"):
            parse_config("experiment = flat_validation, blowup_fit\n")

    def test_negative_exponent_cites_positivity(self):
        with pytest.raises(ConfigError, match="p must be > 0"):
            parse_config("experiment = flat_validation\np = -1\nq = 2\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'q'"):
            parse_config("experiment = flat_validation\np = 2\n")

    def test_type_mismatch_reports_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("experiment = flat_validation\np = 2\nnodes = many\nq = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="line 4: unknown key 'wibble'"):
            parse_config("experiment = flat_validation\np = 2\nq = 2\nwibble = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("experiment = flat_validation\np = 2\np = 3\nq = 2\n")

    def test_pq_one_rejected(self):
        with pytest.raises(ConfigError, match="pq = 1"):
            parse_config("experiment = flat_validation\np = 2\nq = 0.5\n")

    def test_sweep_axis_collected(self):
        spec = parse_config(
            "experiment = estimate_saturation\np = 2\nq = 2\nsweep.m = 10, 100\n"
        )
        assert spec.sweep_axes == {"m": [10.0, 100.0]}

    def test_sweep_axis_must_exist(self):
        with pytest.raises(ConfigError, match="unknown sweep axis"):
            parse_config("experiment = flat_validation\np = 2\nq = 2\nsweep.zap = 1\n")

    def test_sweep_over_list_parameter_rejected(self):
        with pytest.raises(ConfigError, match="list parameter"):
            parse_config(
                "experiment = removability_sweep\np = 3\nq = 3\nsweep.eps_list = 0.1\n"
            )

    def test_comments_and_blank_lines_ignored(self):
        spec = parse_config(
            "# tracking run\n\nexperiment = flat_validation  # recipe\np = 2\nq = 2\n"
        )
        assert spec.name == "flat_validation"

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("experiment = flat_validation\np = 2\nq = 2\nseed = 1.5\n")

    @pytest.mark.parametrize("recipe, line", BAD_LISTS)
    def test_bad_list_rejected_at_parse_time(self, recipe, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=rf"line \d: key '{key}': {key} must"):
            parse_config(config_text(recipe, line))

    @pytest.mark.parametrize("recipe, line", GOOD_LISTS)
    def test_list_at_its_limit_accepted(self, recipe, line):
        parse_config(config_text(recipe, line))

    def test_sweep_base_must_be_valid(self):
        # every swept point would pass the rule, but the base config does not
        with pytest.raises(ConfigError, match="q > p > 1"):
            parse_config("experiment = subsolution_check\np = 2\nq = 2\nsweep.q = 3, 4\n")


class TestRules:
    @pytest.mark.parametrize("name, extra, message", BAD_CONFIGS, ids=BAD_CONFIG_IDS)
    def test_bad_config_is_config_error(self, name, extra, message):
        params = with_pair(name, extra)
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(text_of(name, params))
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_experiment(ExperimentSpec(name, params))

    @pytest.mark.parametrize("name, extra", AT_THE_LIMIT)
    def test_limit_is_accepted_and_runs(self, name, extra):
        params = with_pair(name, extra)
        parse_config(text_of(name, params))
        record = run_experiment(ExperimentSpec(name, params))
        assert not record.failed, record.error

    @pytest.mark.parametrize("name, params", IN_USE)
    def test_configs_in_use_are_accepted(self, name, params):
        parse_config(text_of(name, params))

    def test_empty_epsilons_is_config_error(self):
        # only a dict holds an empty list; the runner used to end in an IndexError
        with pytest.raises(ConfigError, match="epsilons must hold >= 1 value"):
            run_experiment(ExperimentSpec("mean_value_check", {"epsilons": []}))

    def test_overlap_thinner_than_a_cell_is_a_numerical_failure(self):
        # accepted (0.58 < 0.3 + 0.3), but no node of h = 0.05 lies inside both supports
        params = with_pair("trace_measurement",
                           {"psi_center": 0.58, "psi_width": 0.3, "ic_width": 0.3})
        record = run_experiment(ExperimentSpec("trace_measurement", params))
        assert record.failed
        assert record.error.startswith("ValueError: psi and the initial bump overlap on no")

    def test_bad_point_is_isolated(self):
        base = ExperimentSpec("mean_value_check", {"nodes": 41})
        records = sweep(base, {"center_x": [0.0, 9.0]})
        assert [r.failed for r in records] == [False, True]
        assert records[1].error.startswith("ConfigError")
        assert "center_x ± rho" in records[1].error


# small overrides that keep one run of each recipe fast
FAST = {
    "flat_validation": {"p": 2, "q": 2, "nodes": 41, "t_end": 0.2, "n_snapshots": 4},
    "convergence_order": {"p": 2, "q": 2, "nodes": 41},
    "blowup_fit": {"p": 2, "q": 2, "nodes": 41},
    "estimate_saturation": {"p": 2, "q": 2, "nodes": 41, "t_probe": 1e-3},
    "trace_measurement": {"p": 2, "q": 2, "nodes": 41},
    "dichotomy_probe": {"p": 2, "q": 2, "nodes": 41, "t_end": 0.01},
    "removability_sweep": {"p": 2, "q": 2, "nodes": 41, "t_probe": 1e-3},
    "subsolution_check": {"p": 2, "q": 3, "nodes": 41},
    "mean_value_check": {"nodes": 41},
}

# keys each recipe accepted, echoed and never read before they were deleted
DELETED = [
    ("convergence_order", key)
    for key in ("t_start", "t_end", "dt_init", "dt_min", "tol_step", "theta")
] + [
    ("estimate_saturation", "t_start"), ("estimate_saturation", "t_end"),
    ("removability_sweep", "t_start"), ("removability_sweep", "t_end"),
    ("trace_measurement", "t_start"), ("dichotomy_probe", "t_start"),
    ("mean_value_check", "p"), ("mean_value_check", "q"), ("mean_value_check", "t_start"),
]


class ReadRecorder(dict):
    """A parameter dict that remembers every key looked up by index."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestSchema:
    @pytest.mark.parametrize("name", RECIPE_NAMES)
    def test_every_key_is_read(self, name, monkeypatch):
        recorders = []
        resolve = experiments._resolve

        def recording_resolve(*args):
            recorders.append(ReadRecorder(resolve(*args)))
            return recorders[-1]

        monkeypatch.setattr(experiments, "_resolve", recording_resolve)
        record = run_experiment(ExperimentSpec(name, FAST[name]))
        assert not record.failed, record.error
        assert recorders[0].read == set(_RECIPES[name].schema)

    def test_settable_key_count(self):
        assert sum(len(r.schema) for r in _RECIPES.values()) == 119

    @pytest.mark.parametrize("name", RECIPE_NAMES)
    def test_shared_keys_differ_only_in_default(self, name):
        for key, param in _RECIPES[name].schema.items():
            if key in _SHARED:
                assert dataclasses.replace(param, default=_SHARED[key].default) == _SHARED[key]

    @pytest.mark.parametrize("name, key", DELETED)
    def test_deleted_key_is_unknown(self, name, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(config_text(name, f"{key} = 0.5"))
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            run_experiment(ExperimentSpec(name, {**FAST[name], key: 0.5}))

    def test_t_start_is_positive_where_read(self):
        with pytest.raises(ConfigError, match="t_start must be > 0"):
            parse_config("experiment = blowup_fit\np = 2\nq = 2\nt_start = 0\n")


class TestRunExperiment:
    def test_flat_validation_tracks(self):
        record = run_experiment(ExperimentSpec("flat_validation", {"p": 2, "q": 2}))
        assert not record.failed
        assert record.outcome["max_rel_err_u"] < 1e-4
        assert record.params["nodes"] == 401

    def test_outputs_written(self, tmp_path):
        spec = ExperimentSpec("flat_validation", {"p": 2, "q": 2, "nodes": 101,
                                                  "n_snapshots": 4, "t_end": 0.2})
        record = run_experiment(spec, out_dir=tmp_path)
        assert (tmp_path / f"trajectory_{record.runid}.csv").exists()
        assert (tmp_path / f"steps_{record.runid}.csv").exists()

    def test_numerical_failure_is_recorded_not_raised(self):
        spec = ExperimentSpec(
            "flat_validation",
            {"p": 2, "q": 3, "dt_init": 1e-4, "dt_min": 9e-5, "tol_step": 1e-18},
        )
        record = run_experiment(spec)
        assert record.failed
        assert "StepSizeUnderflow" in record.error

    def test_echo_contains_every_numeric_parameter(self):
        record = run_experiment(
            ExperimentSpec("flat_validation", {"p": 2, "q": 2, "nodes": 101,
                                               "n_snapshots": 4, "t_end": 0.2})
        )
        for key in ("p", "q", "nodes", "extent", "bc", "t_start", "t_end",
                    "dt_init", "dt_min", "tol_step", "theta", "n_snapshots"):
            assert key in record.params


class TestSweep:
    def test_single_point_matches_run(self):
        base = ExperimentSpec("flat_validation", {"p": 2, "q": 2, "nodes": 101,
                                                  "n_snapshots": 4, "t_end": 0.2}, seed=5)
        single = run_experiment(base)
        records = sweep(base, {})
        assert len(records) == 1
        assert records[0].outcome == single.outcome
        assert records[0].seed == 5

    def test_no_axes_is_one_run(self):
        records = sweep(ExperimentSpec("flat_validation", FAST["flat_validation"], seed=2))
        assert [r.runid for r in records] == ["flat_validation-s0002-g000"]
        assert not records[0].failed

    def test_grid_order_and_seeds(self):
        base = ExperimentSpec("estimate_saturation",
                              {"p": 2, "q": 2, "nodes": 51, "n_snapshots": 4}, seed=10)
        records = sweep(base, {"m": [10.0, 100.0, 1000.0]})
        assert [r.seed for r in records] == [10, 11, 12]
        assert [r.params["m"] for r in records] == [10.0, 100.0, 1000.0]

    def test_failing_point_is_isolated(self):
        base = ExperimentSpec("flat_validation", {"p": 2, "q": 1.0, "nodes": 101,
                                                  "n_snapshots": 4, "t_end": 0.2})
        records = sweep(base, {"p": [2.0, 1.0, 3.0]})
        assert [r.failed for r in records] == [False, True, False]
        assert "pq = 1" in records[1].error

    def test_recipe_config_error_is_isolated(self):
        base = ExperimentSpec("convergence_order", {"p": 2, "q": 2})
        records = sweep(base, {"q": [2.0, 0.25]})
        assert [r.failed for r in records] == [False, True]
        assert records[1].error.startswith("ConfigError")
        assert "pq > 1" in records[1].error

    def test_arithmetic_failure_is_isolated(self):
        # just above pq = 1 the flat amplitudes overflow in closed_forms
        base = ExperimentSpec("flat_validation", {**FAST["flat_validation"], "q": 1.0})
        records = sweep(base, {"p": [2.0, 1.0001]})
        assert [r.failed for r in records] == [False, True]
        assert records[1].error == "OverflowError: math range error"

    def test_subsolution_order_error_is_isolated(self):
        base = ExperimentSpec("subsolution_check",
                              {"p": 2, "q": 3, "nodes": 51, "n_snapshots": 5, "t_end": 0.2})
        records = sweep(base, {"q": [2.0, 3.0]})
        assert [r.failed for r in records] == [True, False]
        assert records[0].error.startswith("ConfigError")
        assert "q > p > 1" in records[0].error


class TestRecords:
    def test_csv_self_describing(self, tmp_path):
        record = run_experiment(
            ExperimentSpec("flat_validation", {"p": 2, "q": 2, "nodes": 101,
                                               "n_snapshots": 4, "t_end": 0.2})
        )
        path = write_records([record], tmp_path, fmt="csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        assert "runid" in header and "param.p" in header and "out.max_rel_err_u" in header

    def test_csv_cell_with_commas_stays_one_cell(self, tmp_path):
        records = sweep(ExperimentSpec("flat_validation", FAST["flat_validation"]),
                        {"theta": [1.0, 0.4]})
        assert "," in records[1].error
        path = write_records(records, tmp_path, fmt="csv")
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert [len(row) for row in rows] == [len(header)] * 2
        assert rows[1][header.index("error")] == records[1].error

    def test_json_round_trip(self, tmp_path):
        record = run_experiment(
            ExperimentSpec("flat_validation", {"p": 2, "q": 2, "nodes": 101,
                                               "n_snapshots": 4, "t_end": 0.2})
        )
        path = write_records([record], tmp_path, fmt="json")
        data = json.loads(path.read_text())
        assert data["name"] == "flat_validation"
        assert data["outcome"]["max_rel_err_u"] < 1e-4

    def test_sweep_reruns_identical_apart_from_wall_time(self, tmp_path):
        base = ExperimentSpec("estimate_saturation",
                              {"p": 2, "q": 2, "nodes": 51, "n_snapshots": 4}, seed=3)
        grid = {"m": [10.0, 1000.0]}
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            records = sweep(base, grid, out_dir=out)
            write_records(records, out, fmt="csv")
            dirs.append(out)
        text_a = strip_wall_time_csv((dirs[0] / "record.csv").read_text())
        text_b = strip_wall_time_csv((dirs[1] / "record.csv").read_text())
        assert text_a == text_b
        for name in ("trajectory_estimate_saturation-s0003-g000.csv",
                     "steps_estimate_saturation-s0003-g001.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestCli:
    CONFIG = "experiment = flat_validation\np = 2\nq = 2\nnodes = 101\nn_snapshots = 4\nt_end = 0.2\n"

    # the exit-0, exit-1 and exit-2 tests run `python -m absorblab.cli` in a child
    # interpreter; the others call `cli.main` in-process
    def test_run_success(self, tmp_path, run_module):
        result = run_module(["run", "exp.cfg", "--out", str(tmp_path / "out")], self.CONFIG)
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "out" / "record.csv").exists()

    def test_config_error_exit_one(self, run_module):
        result = run_module(["run", "exp.cfg"], "experiment = frobnicate\n")
        assert result.returncode == 1
        assert "frobnicate" in result.stderr

    def test_recipe_config_error_exit_one(self, tmp_path, run_cli):
        result = run_cli(["run", "exp.cfg", "--out", str(tmp_path / "out")],
                         "experiment = convergence_order\np = 0.5\nq = 1\n")
        assert result.returncode == 1
        assert "pq > 1" in result.stderr

    def test_subsolution_order_error_exit_one(self, tmp_path, run_cli):
        result = run_cli(["run", "exp.cfg", "--out", str(tmp_path / "out")],
                         "experiment = subsolution_check\np = 2\nq = 2\n")
        assert result.returncode == 1
        assert "q > p > 1" in result.stderr

    def test_deleted_key_exit_one(self, tmp_path, run_cli):
        result = run_cli(["run", "exp.cfg", "--out", str(tmp_path / "out")],
                         "experiment = removability_sweep\np = 2\nq = 3\nt_end = 0.1\n")
        assert result.returncode == 1
        assert "unknown key 't_end'" in result.stderr

    @pytest.mark.parametrize("index", [0, 9, 15, 17, 24, 30])
    def test_bad_config_exit_one(self, tmp_path, run_cli, index):
        name, extra, message = BAD_CONFIGS[index]
        result = run_cli(["run", "exp.cfg", "--out", str(tmp_path / "out")],
                         text_of(name, with_pair(name, extra)))
        assert result.returncode == 1
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("recipe, line", BAD_LISTS[:5])
    def test_bad_list_exit_one(self, tmp_path, run_cli, recipe, line):
        result = run_cli(["run", "exp.cfg", "--out", str(tmp_path / "out")],
                         config_text(recipe, line))
        assert result.returncode == 1
        assert f"{line.split(' =')[0]} must" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, text", [
        ("run", CONFIG),  # fails creating --out before the trajectory CSV
        ("sweep", "experiment = convergence_order\np = 2\nq = 2\n"),  # fails in write_records
    ], ids=["run", "sweep"])
    def test_unwritable_out_exit_one(self, tmp_path, run_cli, command, text):
        taken = tmp_path / "taken"
        taken.write_text("")
        result = run_cli([command, "exp.cfg", "--out", str(taken)], text)
        assert result.returncode == 1
        assert "error: cannot write outputs" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_file_exit_one(self, tmp_path, run_cli):
        result = run_cli(["run", str(tmp_path / "nope.cfg")])
        assert result.returncode == 1

    def test_undecodable_file_exit_one(self, tmp_path, run_cli):
        # read_text raised an uncaught UnicodeDecodeError, a ValueError and not an OSError
        (tmp_path / "exp.cfg").write_bytes(b"experiment = flat_validation\n\xff\n")
        result = run_cli(["run", "exp.cfg"])
        assert result.returncode == 1
        assert "error: cannot read config: 'utf-8' codec can't decode" in result.stderr
        assert "Traceback" not in result.stderr

    def test_numerical_failure_exit_two(self, tmp_path, run_module):
        result = run_module(["run", "exp.cfg", "--out", str(tmp_path / "out")],
                            "experiment = flat_validation\np = 2\nq = 3\n"
                            "dt_init = 1e-4\ndt_min = 9e-5\ntol_step = 1e-18\n")
        assert result.returncode == 2

    def test_arithmetic_overflow_exit_two(self, tmp_path, run_cli):
        result = run_cli(["run", "exp.cfg", "--out", str(tmp_path / "out")],
                         "experiment = flat_validation\np = 1.0001\nq = 1\nnodes = 41\n")
        assert result.returncode == 2
        assert "numerical failure: OverflowError" in result.stderr
        assert "Traceback" not in result.stderr

    def test_sweep_and_json_format(self, tmp_path, run_cli):
        out = tmp_path / "out"
        result = run_cli(["sweep", "exp.cfg", "--out", str(out), "--format", "json"],
                         "experiment = estimate_saturation\np = 2\nq = 2\nnodes = 51\n"
                         "n_snapshots = 4\nsweep.m = 10, 100\n")
        assert result.returncode == 0, result.stderr
        data = json.loads((out / "record.json").read_text())
        assert len(data) == 2

    def test_sweep_checks_each_value_at_its_point(self, tmp_path, run_cli):
        # theta = 0.4 fails its own point; it used to abort the sweep at parse time
        out = tmp_path / "out"
        result = run_cli(["sweep", "exp.cfg", "--out", str(out), "--format", "json"],
                         self.CONFIG + "sweep.theta = 1.0, 0.4\n")
        assert result.returncode == 0, result.stderr
        first, second = json.loads((out / "record.json").read_text())
        assert not first["failed"]
        assert second["failed"]
        assert second["error"] == "ConfigError: key 'theta': theta must lie in [0.5, 1]"

    def test_seed_override(self, tmp_path, run_cli):
        out = tmp_path / "out"
        result = run_cli(
            ["run", "exp.cfg", "--out", str(out), "--seed", "9", "--format", "json"],
            self.CONFIG + "seed = 4\n",
        )
        assert result.returncode == 0, result.stderr
        data = json.loads((out / "record.json").read_text())
        assert data["seed"] == 9
