import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ecac
from ecac import density, optimizer, pipeline
from ecac.cli import _config_from_args, build_parser, cmd_ablate, cmd_plot, cmd_run, main
from ecac.config import DEFAULT_SWEEP, RunConfig, min_max_normalize, parse_config_file
from ecac.data import Dataset, generate_gaussian_mixture, smallest_pairwise_distances
from ecac.density import pairwise_distance_percentile
from ecac.errors import ConfigError, MissingResult, NotPlottable
from ecac.optimizer import trace_records
from ecac.pipeline import ClusteringResult
from ecac.svg import PALETTE, render_scatter

GEN_FLAGS = {
    "gen_k": 2,
    "gen_n": 30,
    "gen_means": "0,0 | 25,0",
    "gen_stddev": 1.0,
    "gen_seed": 3,
    "algo": "kmeans",
    "k": 2,
    "seed": 0,
}


# A generated source as config-file lines, without k or out.
GEN_TOML = 'gen_k = 2\ngen_n = 40\ngen_means = "0,0 | 30,0"\ngen_seed = 5\nalgo = "kmeans"\n'


def gen_config(tmp_path, **overrides) -> RunConfig:
    flags = dict(GEN_FLAGS, out=str(tmp_path / "out"))
    flags.update(overrides)
    return RunConfig.from_sources(None, flags)


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(x) for x in obj]
    return obj


class TestConfig:
    def test_file_then_flag_precedence(self, tmp_path):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text(
            'data = "data/spiral.csv"\nlabel_col = -1\nk = 3\nseed = 7\n# comment\n'
            "delta_sweep = [0.01, 0.02]\n"
        )
        values = parse_config_file(cfg_file)
        config = RunConfig.from_sources(values, {"seed": 99, "out": "elsewhere"})
        assert config.k == 3
        assert config.seed == 99  # flag wins
        assert config.out == "elsewhere"
        assert config.delta_sweep == [0.01, 0.02]

    def test_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text("bogus = 1\nk = 2\n")
        with pytest.raises(ConfigError):
            RunConfig.from_sources(parse_config_file(cfg_file), {"data": "x"})

    def test_exactly_one_source(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, {"k": 2})
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, {"k": 2, "data": "a.csv", "gen_k": 2})

    def test_delta_options_exclusive(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(
                None, {"k": 2, "data": "a.csv", "delta": 1.0, "delta_percentile": 0.02}
            )

    def test_sweep_nonempty(self):
        with pytest.raises(ConfigError):
            RunConfig.from_sources(None, {"k": 2, "data": "a.csv", "delta_sweep": []})

    def test_sweep_from_comma_string_or_list(self):
        for value in ("0.01, 0.05", [0.01, 0.05], ["0.01", "0.05"]):
            config = RunConfig.from_sources(None, {"k": 2, "data": "a.csv", "delta_sweep": value})
            assert config.delta_sweep == [0.01, 0.05]

    def test_bad_sweep_flag_exits_2(self, tmp_path, capsys):
        argv = ["run", "--data", "data/spiral.csv", "--label-col", "-1", "--k", "3",
                "--delta-sweep", "0.01,abc", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "delta_sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("line, key", [
        ("delta_sweep = 0.02", "delta_sweep"),
        ('delta_sweep = [0.01, "x"]', "delta_sweep"),
        ('k = "three"', "k"),
        ('cap = "x"', "cap"),
        ('delta_percentile = "x"', "delta_percentile"),
        ('delta = "x"', "delta"),
        ("seed = 1.5", "seed"),
        ("max_iter = true", "max_iter"),
        ('d_c = "x"', "d_c"),
        ('gen_k = "2"', "gen_k"),
        ('gen_seed = "x"', "gen_seed"),
        ("seed = -1", "seed"),
        ("gen_seed = -1", "gen_seed"),
        ("max_iter = 0", "max_iter"),
        ("max_iter = -3", "max_iter"),
        ("label_col = 1.5", "label_col"),
        ('normalize = "yes"', "normalize"),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, line, key):
        cfg_file = tmp_path / "run.toml"
        base = "".join(
            f"{entry}\n" for entry in ('data = "data/spiral.csv"', "label_col = -1", "k = 3")
            if not entry.startswith(f"{key} =")
        )
        cfg_file.write_text(f"{base}{line}\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert f"error: {key} " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [
        None,  # no such file
        "k = 2\nk = 3\n",  # a key given twice
        "algo = kmeans\n",  # a bare string
        'out = "unterminated\n',
    ])
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, text):
        cfg_file = tmp_path / "run.toml"
        if text is not None:
            cfg_file.write_text(GEN_TOML + text)
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg_file) in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("lines", [
        'gen_means = "0,x | 1,2"',
        "gen_means = [[0, 0], [30]]",
        'gen_means = "0,0 | 30,0"\ngen_n = "x"',
    ])
    def test_bad_generator_value_exits_2(self, tmp_path, capsys, lines):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text(f"gen_k = 2\n{lines}\nk = 2\n")
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_data_naming_a_directory_exits_2(self, tmp_path, capsys):
        argv = ["run", "--data", str(tmp_path), "--k", "2", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_empty_data_path_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text('data = ""\nk = 2\n')
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    def test_csv_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "latin1.csv"
        csv.write_bytes("x,y\n1,2\n3,\u00e9\n".encode("latin-1"))
        argv = ["run", "--data", str(csv), "--k", "2", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(csv) in err
        assert not (tmp_path / "o").exists()

    def test_hash_inside_a_string_is_kept(self, tmp_path):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text(GEN_TOML + 'k = 2\nout = "runs/#3"  # comment\n')
        config = RunConfig.from_sources(parse_config_file(cfg_file), {})
        assert config.out == "runs/#3"

    def test_nested_list_means_run(self, tmp_path):
        cfg_file = tmp_path / "run.toml"
        cfg_file.write_text(
            GEN_TOML.replace('"0,0 | 30,0"', "[[0, 0], [30, 0]]") + "k = 2\n"
        )
        argv = ["run", "--config", str(cfg_file), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        dataset, truth = _config_from_args(build_parser().parse_args(argv)).load_dataset()
        assert dataset.n == 80 and truth.labels.tolist() == [0] * 40 + [1] * 40
        payload = json.loads((tmp_path / "o" / "result.json").read_text())
        assert payload["config"]["gen_means"] == [[0, 0], [30, 0]]

    def test_readme_config_block_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (block,) = re.findall(r"```toml\n(.*?)```", readme, flags=re.S)
        cfg_file = tmp_path / "demo.toml"
        cfg_file.write_text(block)
        config = RunConfig.from_sources(parse_config_file(cfg_file), {})
        assert (config.gen_k, config.gen_n, config.algo, config.k) == (2, 40, "kmeans", 2)
        dataset, truth = config.load_dataset()
        assert dataset.n == 80 and truth.k_true == 2

    def test_importing_the_cli_leaves_tomllib_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(Path(ecac.__file__).resolve().parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", "import sys, ecac.cli; print('tomllib' in sys.modules)"],
            capture_output=True, text=True, env=env, check=True,
        )
        assert child.stdout.strip() == "False"

    def test_cli_runs_without_loading_scipy(self, tmp_path):
        # The package is pure NumPy: neither the import nor a run or an
        # ablation loads SciPy, whatever is installed.
        script = (
            "import sys, ecac.cli\n"
            "argv = ['--data', 'data/spiral.csv', '--label-col', '-1', '--k', '3']\n"
            f"assert ecac.cli.main(['run', *argv, '--algo', 'dpc', '--out', {str(tmp_path / 'r')!r}]) == 0\n"
            f"assert ecac.cli.main(['ablate', *argv, '--out', {str(tmp_path / 'a')!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ecac.__file__).resolve().parents[1]))
        child = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True,
        )
        assert child.stdout.strip().splitlines()[-1] == "[]"

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("delta_flag, delta_field", [
        (["--delta", "0.4"], {"delta": 0.4}),
        (["--delta-percentile", "0.03"], {"delta_percentile": 0.03}),
        (["--delta-sweep", "0.01,0.05"], {"delta_sweep": [0.01, 0.05]}),
    ])
    def test_every_flag_reaches_the_config(self, command, delta_flag, delta_field):
        argv = [command, "--data", "a.csv", "--label-col", "-1", "--algo", "dpc",
                "--k", "3", *delta_flag, "--strategy", "global", "--cap", "5",
                "--seed", "7", "--d-c", "0.5", "--max-iter", "9", "--normalize",
                "--out", "o", "--trace"]
        config = _config_from_args(build_parser().parse_args(argv))
        assert config == RunConfig(
            data="a.csv", label_col=-1, algo="dpc", k=3, strategy="global", cap=5,
            seed=7, d_c=0.5, max_iter=9, normalize=True, out="o", **delta_field,
        )

    def test_min_max_normalize(self):
        ds = Dataset(np.array([[0.0, 5.0], [10.0, 5.0], [5.0, 15.0]]))
        scaled = min_max_normalize(ds)
        assert scaled.points.min() == 0.0 and scaled.points.max() == 1.0
        assert scaled.points[:, 1].tolist() == [0.0, 0.0, 1.0]


class TestCmdRun:
    def test_result_roundtrip_and_shared_centers(self, tmp_path):
        config = gen_config(tmp_path)
        payload = cmd_run(config)
        on_disk = json.loads((tmp_path / "out" / "result.json").read_text())
        assert on_disk == payload
        assert payload["baseline"]["center_ids"] == payload["optimized"]["center_ids"]
        for record in payload["sweep"]:
            assert record["center_ids"] == payload["optimized"]["center_ids"]
        restored = ClusteringResult.from_dict(payload["optimized"])
        assert restored.to_dict() == payload["optimized"]

    def test_determinism_modulo_timings(self, tmp_path):
        a = cmd_run(gen_config(tmp_path / "a"))
        b = cmd_run(gen_config(tmp_path / "b"))
        a["config"].pop("out")
        b["config"].pop("out")
        assert strip_timings(a) == strip_timings(b)

    def test_sweep_deltas_equal_per_fraction_percentiles(self, tmp_path):
        config = gen_config(tmp_path)
        dataset, _ = config.load_dataset()
        payload = cmd_run(config)
        assert [r["delta"] for r in payload["sweep"]] == [
            pairwise_distance_percentile(dataset, p) for p in DEFAULT_SWEEP
        ]

    def test_missing_file_mentions_path(self, tmp_path):
        config_kwargs = {"data": "no/such/file.csv", "k": 2, "algo": "kmeans"}
        config = RunConfig.from_sources(None, dict(config_kwargs, out=str(tmp_path)))
        with pytest.raises(ConfigError, match="no/such/file.csv"):
            cmd_run(config)

    def test_metrics_absent_without_ground_truth(self, tmp_path):
        csv = tmp_path / "plain.csv"
        rng = np.random.default_rng(0)
        csv.write_text("\n".join(f"{x:.4f},{y:.4f}" for x, y in rng.normal(size=(30, 2))))
        config = RunConfig.from_sources(
            None, {"data": str(csv), "k": 2, "out": str(tmp_path / "o")}
        )
        payload = cmd_run(config)
        assert payload["optimized"]["nmi"] is None
        assert payload["optimized"]["ri"] is None
        assert len(payload["sweep"]) == 1  # nothing to rank a sweep by

    def test_trace_dump(self, tmp_path):
        config = gen_config(tmp_path, delta_percentile=0.05)
        cmd_run(config, dump_trace=True)
        lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert all(set(r) == {"object", "set", "dis", "covered"} for r in records)
        covered = [r["covered"] for r in records]
        assert covered == sorted(covered)


    def test_result_file_is_one_line_that_parses_back(self, tmp_path):
        # A DPC run with the default sweep: labels, sets and five sweep
        # records, written as one compact JSON line.
        config = RunConfig.from_sources(None, {
            "data": "data/spiral.csv", "label_col": -1, "algo": "dpc", "k": 3,
            "out": str(tmp_path / "o"),
        })
        payload = cmd_run(config, quiet=True)
        text = (tmp_path / "o" / "result.json").read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("\n")
        assert json.loads(text) == payload
        assert len(payload["sweep"]) == len(DEFAULT_SWEEP)
        assert all(type(x) is int for x in payload["optimized"]["labels"])

    def test_trace_records_are_built_only_for_trace_output(self, tmp_path, monkeypatch):
        built = []

        def counted(steps):
            built.append(len(steps[0]))
            return trace_records(steps)

        monkeypatch.setattr(optimizer, "trace_records", counted)
        monkeypatch.setattr(pipeline, "trace_records", counted)
        argv = ["run", "--data", "data/spiral.csv", "--label-col", "-1", "--k", "3",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert built == []
        assert main(argv + ["--trace"]) == 0
        lines = (tmp_path / "o" / "trace.jsonl").read_text(encoding="utf-8").splitlines()
        assert built == [len(lines)] and lines

    def test_dpc_run_samples_pairwise_distances_once(self, tmp_path, monkeypatch):
        # DPC's default cutoff and the requested percentile are the same
        # fraction, which the dataset keeps once it is resolved.
        calls = []

        def counted(points, count):
            calls.append(points.shape[0])
            return smallest_pairwise_distances(points, count)

        monkeypatch.setattr(density, "smallest_pairwise_distances", counted)
        argv = ["run", "--data", "data/spiral.csv", "--label-col", "-1", "--algo", "dpc",
                "--k", "3", "--delta-percentile", "0.02", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert len(calls) == 1


class TestCmdAblate:
    def test_needs_two_variants(self, tmp_path):
        with pytest.raises(ConfigError):
            cmd_ablate(gen_config(tmp_path), ["local"])
        with pytest.raises(ConfigError, match="local"):
            cmd_ablate(gen_config(tmp_path), ["local", "global", "local"])

    def test_repeated_variant_exits_2(self, tmp_path, capsys):
        argv = ["ablate", "--data", "data/spiral.csv", "--label-col", "-1",
                "--algo", "kmeans", "--k", "3", "--variants", "local,local",
                "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert not (tmp_path / "o").exists()
        assert "local" in capsys.readouterr().err

    def test_variant_table(self, tmp_path):
        payload = cmd_ablate(gen_config(tmp_path), ["local", "global", "random"])
        assert set(payload["variants"]) == {"local", "global", "random"}
        centers = {tuple(r["center_ids"]) for r in payload["variants"].values()}
        assert len(centers) == 1
        deltas = {r["delta"] for r in payload["variants"].values()}
        assert len(deltas) == 1

    def test_parity_cap_applied_for_nodensity(self, tmp_path):
        payload = cmd_ablate(gen_config(tmp_path), ["local", "nodensity"])
        assert payload["cap"] is not None and payload["cap"] >= 1
        for record in payload["variants"].values():
            assert record["cap"] == payload["cap"]
            for group in record["extended_sets"]:
                assert len(group) - 1 <= payload["cap"]

    def test_rejects_sweep(self, tmp_path):
        config = gen_config(tmp_path, delta_sweep=[0.01, 0.02])
        with pytest.raises(ConfigError):
            cmd_ablate(config, ["local", "global"])


class TestCmdPlot:
    def test_svg_deterministic_and_colored(self, tmp_path):
        config = gen_config(tmp_path)
        cmd_run(config)
        result = tmp_path / "out" / "result.json"
        first = cmd_plot(result, "clusters", tmp_path / "a.svg").read_bytes()
        second = cmd_plot(result, "clusters", tmp_path / "b.svg").read_bytes()
        assert first == second
        fills = set(re.findall(rb'fill="(#[0-9a-f]{6})"', first))
        palette_fills = {f for f in fills if f.decode() in PALETTE}
        assert len(palette_fills) == 2

    def test_extended_sets_mode_colors_per_set(self, tmp_path):
        config = gen_config(tmp_path)
        cmd_run(config)
        out = cmd_plot(tmp_path / "out" / "result.json", "extended-sets")
        text = out.read_text()
        fills = {f for f in re.findall(r'fill="(#[0-9a-f]{6})"', text) if f in PALETTE}
        assert len(fills) == 2

    def test_missing_result(self, tmp_path):
        with pytest.raises(MissingResult):
            cmd_plot(tmp_path / "nothing.json", "clusters")

    @pytest.mark.parametrize("rows", [100, 300])
    def test_csv_resized_since_run_exits_2(self, tmp_path, capsys, rows):
        ds, gt = generate_gaussian_mixture(2, 150, [[0, 0], [25, 0]], 1.0, seed=3)
        lines = [f"{x},{y},{c}" for (x, y), c in zip(ds.points, gt.labels)]
        csv = tmp_path / "data.csv"
        csv.write_text("\n".join(lines[:200]) + "\n")
        out = tmp_path / "out"
        assert main(["run", "--data", str(csv), "--label-col", "-1", "--algo", "kmeans",
                     "--k", "2", "--delta-percentile", "0.02", "--out", str(out)]) == 0
        csv.write_text("\n".join(lines[:rows]) + "\n")
        for mode in ("clusters", "extended-sets"):
            assert main(["plot", str(out / "result.json"), "--mode", mode]) == 2
            assert f"fit {rows} objects" in capsys.readouterr().err


class TestRenderScatter:
    def test_one_dimensional_rejected(self):
        with pytest.raises(NotPlottable):
            render_scatter(np.zeros((4, 1)), [0] * 4, [0])

    def test_high_dimensional_warns(self):
        pts = np.random.default_rng(0).normal(size=(10, 5))
        with pytest.warns(UserWarning, match="first two"):
            svg = render_scatter(pts, [0] * 10, [0])
        assert svg.startswith("<?xml")

    def test_bad_mode(self):
        with pytest.raises(NotPlottable):
            render_scatter(np.zeros((2, 2)), [0, 0], [0], mode="sideways")

    def test_ids_outside_points_rejected(self):
        with pytest.raises(NotPlottable):
            render_scatter(np.zeros((3, 2)), [0, 0, 0], [3])
        with pytest.raises(NotPlottable):
            render_scatter(np.zeros((3, 2)), [0, 0, 0], [0], "extended-sets", [[0, -1]])

    def test_center_markers_present(self):
        ds, _ = generate_gaussian_mixture(2, 10, [[0, 0], [9, 9]], 1.0, seed=1)
        svg = render_scatter(ds.points, [0] * 10 + [1] * 10, [0, 10])
        assert svg.count('stroke="black"') == 2


class TestMainEntry:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["plot", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "missing.json" in err

    def test_run_via_argv(self, tmp_path):
        code = main([
            "run", "--data", "data/spiral.csv", "--label-col", "-1",
            "--algo", "kmeans", "--k", "3", "--seed", "0",
            "--delta-percentile", "0.01",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert (tmp_path / "o" / "result.json").exists()
